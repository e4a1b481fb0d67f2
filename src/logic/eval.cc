#include "src/logic/eval.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

#include "src/store/fact_store.h"

namespace accltl {
namespace logic {

namespace {

using store::FactId;
using store::ValueId;

/// Slot content of an unbound variable.
constexpr ValueId kUnbound = store::kNoValueId;
/// Local ids (values the store has never seen) count up from here;
/// store ids stay far below, and no fact contains a local id.
constexpr ValueId kLocalBase = 0x80000000u;

/// How an operand is used where it occurs.
enum class Mode : uint8_t {
  kCheck,  // bound on every path here: compare
  kBind,   // unbound on every path here: bind, unbind on backtrack
  kMaybe,  // bound on some paths only (after an OR): decided at run time
};

enum class OpKind : uint8_t { kFail, kNop, kAtom, kBindProp, kEq, kNeq, kOr };

struct Arg {
  uint32_t slot;
  Mode mode;
};

}  // namespace

/// A flat program: each op names its continuation `next` (-1: the
/// formula holds). AND chains its conjuncts through `next`; EXISTS and
/// TRUE compile away; OR lists one entry per branch, every branch
/// continuing at the OR's continuation.
struct CompiledFormula::Program {
  struct Op {
    OpKind kind = OpKind::kNop;
    bool has_maybe = false;
    int next = -1;
    /// kAtom / kBindProp.
    PredicateRef pred;
    /// kAtom: one arg per position; kEq / kNeq: lhs, rhs; kOr: the
    /// branch entries (a range of `branches`).
    uint32_t args_begin = 0;
    uint32_t num_args = 0;
    /// kAtom: the first position bound before the atom (the
    /// FactIdIndex probe), or -1.
    int index_pos = -1;
  };
  struct Constant {
    uint32_t slot;
    /// The store id found at compile time; kNoValueId: looked up again
    /// per evaluation (a positive answer is stable, a negative one not).
    ValueId id;
    Value value;
  };

  std::vector<Op> ops;
  std::vector<Arg> args;
  std::vector<int> branches;
  int entry = -1;
  uint32_t num_slots = 0;
  std::vector<Constant> constants;
  /// Top-level free variables by name; the params come first, in slots
  /// 0 .. num_params-1.
  std::vector<std::pair<std::string, uint32_t>> free_slots;
  uint32_t num_params = 0;
  /// A Sentences or Entries program: entry i is
  /// branches[branches.size() - num_entries + i].
  uint32_t num_entries = 0;
};

namespace {

using Program = CompiledFormula::Program;
using Op = Program::Op;

/// Builds a Program in one pass, tracking per slot whether it is bound,
/// unbound or maybe-bound at the current program point.
class Compiler {
 public:
  explicit Compiler(Program* p) : p_(p) {}

  /// Compiles each formula to its own entry, in order; returns the
  /// entries. The formulas share their free variables by name, and
  /// constant slots; each starts with its free variables unbound.
  std::vector<int> Compile(const std::vector<const PosFormula*>& fs,
                           const std::vector<std::string>& params) {
    for (const std::string& name : params) {
      p_->free_slots.emplace_back(name, NewSlot(kBound));
    }
    p_->num_params = static_cast<uint32_t>(params.size());
    size_t ops = 0, args = 0;
    for (const PosFormula* f : fs) Count(f, &ops, &args);
    p_->ops.reserve(ops);
    p_->args.reserve(args);
    std::vector<int> entries;
    for (const PosFormula* f : fs) {
      for (size_t i = p_->num_params; i < p_->free_slots.size(); ++i) {
        status_[p_->free_slots[i].second] = kUnboundS;
      }
      std::vector<int> exits;
      entries.push_back(Emit(f, &exits));
      Patch(exits, -1);
    }
    p_->num_slots = static_cast<uint32_t>(status_.size());
    // A program can live as long as the guard or plan holding it: drop
    // the growth slack.
    p_->branches.shrink_to_fit();
    p_->constants.shrink_to_fit();
    p_->free_slots.shrink_to_fit();
    return entries;
  }

 private:
  enum Status : uint8_t { kUnboundS, kBound, kMaybeS };

  /// The ops and args Emit will create for `f` (exact).
  static void Count(const PosFormula* f, size_t* ops, size_t* args) {
    switch (f->kind()) {
      case NodeKind::kAtom:
        *args += f->terms().size();
        ++*ops;
        return;
      case NodeKind::kEq:
      case NodeKind::kNeq:
        *args += 2;
        ++*ops;
        return;
      case NodeKind::kAnd:
        if (f->children().empty()) ++*ops;
        break;
      case NodeKind::kExists:
        Count(f->body().get(), ops, args);
        return;
      default:  // TRUE, FALSE, OR
        ++*ops;
        break;
    }
    for (const PosFormulaPtr& c : f->children()) Count(c.get(), ops, args);
  }

  uint32_t NewSlot(Status s) {
    status_.push_back(s);
    return static_cast<uint32_t>(status_.size() - 1);
  }

  /// The slot a variable name denotes here: the innermost quantifier
  /// binding it, else a top-level free variable (created on first use).
  uint32_t VarSlot(const std::string& name) {
    for (size_t i = scope_.size(); i-- > 0;) {
      if (scope_[i].first == name) return scope_[i].second;
    }
    for (const auto& [free_name, slot] : p_->free_slots) {
      if (free_name == name) return slot;
    }
    uint32_t slot = NewSlot(kUnboundS);
    p_->free_slots.emplace_back(name, slot);
    return slot;
  }

  uint32_t TermSlot(const Term& t) {
    if (t.is_var()) return VarSlot(t.var_name());
    auto it = const_slots_.find(t.value());
    if (it != const_slots_.end()) return it->second;
    uint32_t slot = NewSlot(kBound);
    const_slots_.emplace(t.value(), slot);
    p_->constants.push_back(Program::Constant{
        slot, store::Store::Get().TryFindValue(t.value()), t.value()});
    return slot;
  }

  /// Status of a term without creating a slot for it.
  Status TermStatus(const Term& t) const {
    if (t.is_const()) return kBound;
    for (size_t i = scope_.size(); i-- > 0;) {
      if (scope_[i].first == t.var_name()) return status_[scope_[i].second];
    }
    for (const auto& [name, slot] : p_->free_slots) {
      if (name == t.var_name()) return status_[slot];
    }
    return kUnboundS;
  }

  Arg UseSlot(uint32_t slot) {
    Mode mode = status_[slot] == kBound    ? Mode::kCheck
                : status_[slot] == kUnboundS ? Mode::kBind
                                             : Mode::kMaybe;
    status_[slot] = kBound;  // later occurrences compare
    return Arg{slot, mode};
  }

  int NewOp(OpKind kind) {
    Op op;
    op.kind = kind;
    op.args_begin = static_cast<uint32_t>(p_->args.size());
    p_->ops.push_back(op);
    return static_cast<int>(p_->ops.size() - 1);
  }

  void Patch(const std::vector<int>& exits, int next) {
    for (int pc : exits) p_->ops[static_cast<size_t>(pc)].next = next;
  }

  /// Emits `f`; returns its entry and appends the ops continuing past
  /// it to `exits`.
  int Emit(const PosFormula* f, std::vector<int>* exits) {
    switch (f->kind()) {
      case NodeKind::kTrue: {
        int pc = NewOp(OpKind::kNop);
        exits->push_back(pc);
        return pc;
      }
      case NodeKind::kFalse:
        return NewOp(OpKind::kFail);
      case NodeKind::kAtom:
        return EmitAtom(f, exits);
      case NodeKind::kEq:
      case NodeKind::kNeq: {
        int pc = NewOp(f->kind() == NodeKind::kEq ? OpKind::kEq : OpKind::kNeq);
        uint32_t l = TermSlot(f->lhs());
        uint32_t r = TermSlot(f->rhs());
        Arg la = UseSlot(l);
        Arg ra = UseSlot(r);
        p_->args.push_back(la);
        p_->args.push_back(ra);
        p_->ops[static_cast<size_t>(pc)].num_args = 2;
        // Past the op both sides are bound: it continues only then.
        exits->push_back(pc);
        return pc;
      }
      case NodeKind::kAnd:
        return EmitAnd(f->children(), exits);
      case NodeKind::kOr:
        return EmitOr(f->children(), exits);
      case NodeKind::kExists: {
        size_t mark = scope_.size();
        for (const std::string& v : f->bound_vars()) {
          scope_.emplace_back(v, NewSlot(kUnboundS));
        }
        int entry = Emit(f->body().get(), exits);
        scope_.resize(mark);
        return entry;
      }
    }
    return NewOp(OpKind::kFail);
  }

  int EmitAtom(const PosFormula* f, std::vector<int>* exits) {
    // 0-ary IsBind proposition (Sch0−Acc, §4.2): an IsBind atom written
    // with no terms for a method that has input positions.
    if (f->pred().space == PredSpace::kBind && f->terms().empty()) {
      int pc = NewOp(OpKind::kBindProp);
      p_->ops[static_cast<size_t>(pc)].pred = f->pred();
      exits->push_back(pc);
      return pc;
    }
    int pc = NewOp(OpKind::kAtom);
    Op op = p_->ops[static_cast<size_t>(pc)];
    op.pred = f->pred();
    // Slots first, modes second: only a value bound before the atom can
    // probe an index (a repeated variable compares against this same
    // tuple).
    for (const Term& t : f->terms()) {
      uint32_t slot = TermSlot(t);
      if (op.index_pos < 0 && status_[slot] == kBound) {
        op.index_pos = static_cast<int>(op.num_args);
      }
      p_->args.push_back(Arg{slot, Mode::kCheck});
      ++op.num_args;
    }
    for (uint32_t i = 0; i < op.num_args; ++i) {
      Arg& a = p_->args[op.args_begin + i];
      a = UseSlot(a.slot);
      op.has_maybe = op.has_maybe || a.mode == Mode::kMaybe;
    }
    p_->ops[static_cast<size_t>(pc)] = op;
    exits->push_back(pc);
    return pc;
  }

  /// Conjuncts in a fixed order: a ready (in)equality first — it only
  /// filters or copies a value — else the next other conjunct in
  /// written order, else the remaining equalities, then inequalities.
  int EmitAnd(const std::vector<PosFormulaPtr>& children,
              std::vector<int>* exits) {
    std::vector<const PosFormula*> rest;
    for (const PosFormulaPtr& c : children) rest.push_back(c.get());
    int entry = -1;
    std::vector<int> pending;
    while (!rest.empty()) {
      size_t pick = Pick(rest);
      const PosFormula* c = rest[pick];
      rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(pick));
      std::vector<int> out;
      int pc = Emit(c, &out);
      if (entry < 0) {
        entry = pc;
      } else {
        Patch(pending, pc);
      }
      pending = std::move(out);
    }
    if (entry < 0) {  // empty conjunction: TRUE
      entry = NewOp(OpKind::kNop);
      pending.push_back(entry);
    }
    exits->insert(exits->end(), pending.begin(), pending.end());
    return entry;
  }

  size_t Pick(const std::vector<const PosFormula*>& rest) const {
    auto is_cmp = [](const PosFormula* c) {
      return c->kind() == NodeKind::kEq || c->kind() == NodeKind::kNeq;
    };
    for (size_t i = 0; i < rest.size(); ++i) {
      const PosFormula* c = rest[i];
      if (c->kind() == NodeKind::kEq &&
          (TermStatus(c->lhs()) == kBound || TermStatus(c->rhs()) == kBound)) {
        return i;
      }
      if (c->kind() == NodeKind::kNeq && TermStatus(c->lhs()) == kBound &&
          TermStatus(c->rhs()) == kBound) {
        return i;
      }
    }
    for (size_t i = 0; i < rest.size(); ++i) {
      if (!is_cmp(rest[i])) return i;
    }
    for (size_t i = 0; i < rest.size(); ++i) {
      if (rest[i]->kind() == NodeKind::kEq) return i;
    }
    return 0;  // only inequalities remain
  }

  int EmitOr(const std::vector<PosFormulaPtr>& children,
             std::vector<int>* exits) {
    if (children.empty()) return NewOp(OpKind::kFail);
    int pc = NewOp(OpKind::kOr);
    std::vector<Status> in = status_;
    std::vector<Status> merged;
    std::vector<int> entries;
    for (size_t b = 0; b < children.size(); ++b) {
      status_ = in;
      status_.resize(std::max(status_.size(), merged.size()), kUnboundS);
      entries.push_back(Emit(children[b].get(), exits));
      if (b == 0) {
        merged = status_;
        continue;
      }
      merged.resize(std::max(merged.size(), status_.size()), kUnboundS);
      for (size_t s = 0; s < merged.size(); ++s) {
        Status here = s < status_.size() ? status_[s] : kUnboundS;
        if (merged[s] != here) merged[s] = kMaybeS;
      }
    }
    // A slot bound on some branches only is kMaybeS past the OR.
    status_ = std::move(merged);
    Op& op = p_->ops[static_cast<size_t>(pc)];
    op.args_begin = static_cast<uint32_t>(p_->branches.size());
    op.num_args = static_cast<uint32_t>(entries.size());
    p_->branches.insert(p_->branches.end(), entries.begin(), entries.end());
    return pc;
  }

  Program* p_;
  std::vector<Status> status_;
  std::vector<std::pair<std::string, uint32_t>> scope_;
  std::map<Value, uint32_t> const_slots_;
};

/// One evaluation: the slot array, local ids for unseen values, and
/// the resolved rows of value-mode (std::set) ranges.
class Machine {
 public:
  Machine(const Program& p, const StructureView& view)
      : p_(p), view_(view), store_(store::Store::Get()) {
    if (p.num_slots > kInline) heap_.resize(p.num_slots);
    slots_ = p.num_slots > kInline ? heap_.data() : inline_;
    for (uint32_t i = 0; i < p.num_slots; ++i) slots_[i] = kUnbound;
    for (const Program::Constant& c : p.constants) {
      slots_[c.slot] = c.id != store::kNoValueId ? c.id : Resolve(c.value);
    }
  }

  void BindParams(const std::vector<Value>& args) {
    assert(args.size() == p_.num_params);
    for (uint32_t i = 0; i < args.size() && i < p_.num_params; ++i) {
      slots_[i] = Resolve(args[i]);
    }
  }

  ValueId slot(uint32_t s) const { return slots_[s]; }
  const ValueId* slots() const { return slots_; }

  const Value& Decode(ValueId id) const {
    return id < kLocalBase ? store_.value(id)
                             : local_values_[id - kLocalBase];
  }

  template <typename K>
  bool Exec(int pc, K& k) {
    if (pc < 0) return k();
    const Op& op = p_.ops[static_cast<size_t>(pc)];
    switch (op.kind) {
      case OpKind::kFail:
        return false;
      case OpKind::kNop:
        return Exec(op.next, k);
      case OpKind::kOr:
        for (uint32_t b = 0; b < op.num_args; ++b) {
          if (Exec(p_.branches[op.args_begin + b], k)) return true;
        }
        return false;
      case OpKind::kBindProp: {
        static const Tuple kEmpty;
        bool holds = view_.MethodUsed(op.pred.id) ||
                     view_.GetTuples(op.pred).Contains(kEmpty);
        return holds && Exec(op.next, k);
      }
      case OpKind::kEq:
      case OpKind::kNeq:
        return ExecCompare(op, k);
      case OpKind::kAtom:
        return ExecAtom(op, k);
    }
    return false;
  }

 private:
  static constexpr uint32_t kInline = 24;

  /// The id of `v`: its store id, else a local id stable for this
  /// evaluation. Looks up, never interns.
  ValueId Resolve(const Value& v) {
    if (!local_ids_.empty()) {
      auto it = local_ids_.find(v);
      if (it != local_ids_.end()) return it->second;
    }
    ValueId id = store_.TryFindValue(v);
    if (id != store::kNoValueId) return id;
    id = kLocalBase + static_cast<ValueId>(local_values_.size());
    local_values_.push_back(v);
    local_ids_.emplace(v, id);
    return id;
  }

  template <typename K>
  bool ExecCompare(const Op& op, K& k) {
    const Arg& la = p_.args[op.args_begin];
    const Arg& ra = p_.args[op.args_begin + 1];
    ValueId l = slots_[la.slot];
    ValueId r = slots_[ra.slot];
    if (op.kind == OpKind::kNeq) {
      if (l == kUnbound || r == kUnbound) return false;
      return l != r && Exec(op.next, k);
    }
    if (l != kUnbound && r != kUnbound) return l == r && Exec(op.next, k);
    // Both unbound: an unguarded equality (library formulas are
    // range-restricted, so this never holds).
    if (l == kUnbound && r == kUnbound) return false;
    uint32_t target = l == kUnbound ? la.slot : ra.slot;
    slots_[target] = l == kUnbound ? r : l;
    bool stop = Exec(op.next, k);
    slots_[target] = kUnbound;
    return stop;
  }

  /// Matches one row of value ids against the atom's operands; runs the
  /// continuation on a match. Undoes its bindings before returning.
  template <typename K>
  bool TryRow(const Op& op, const Arg* args, const ValueId* vals, size_t n,
              K& k) {
    if (n != op.num_args) return false;
    size_t i = 0;
    for (; i < n; ++i) {
      ValueId& s = slots_[args[i].slot];
      if (args[i].mode == Mode::kBind) {
        s = vals[i];
      } else if (s != vals[i]) {
        break;
      }
    }
    bool stop = i == n && Exec(op.next, k);
    for (size_t j = 0; j < i; ++j) {
      if (args[j].mode == Mode::kBind) slots_[args[j].slot] = kUnbound;
    }
    return stop;
  }

  template <typename K>
  bool ExecAtom(const Op& op, K& k) {
    store::TupleRange range = view_.GetTuples(op.pred);
    if (range.empty()) return false;
    const Arg* args = &p_.args[op.args_begin];
    std::vector<Arg> resolved;
    if (op.has_maybe) {
      // Fix the maybe-bound operands for this evaluation of the atom.
      resolved.assign(args, args + op.num_args);
      for (Arg& a : resolved) {
        if (a.mode == Mode::kMaybe) {
          a.mode = slots_[a.slot] == kUnbound ? Mode::kBind : Mode::kCheck;
        }
      }
      args = resolved.data();
    }
    if (range.has_fact_ids()) {
      if (op.index_pos >= 0) {
        ValueId v = slots_[args[op.index_pos].slot];
        const std::vector<FactId>* ids = view_.FactIdIndex(
            op.pred, op.index_pos, v >= kLocalBase ? store::kNoValueId : v);
        if (ids != nullptr) {
          for (FactId id : *ids) {
            const std::vector<ValueId>& vals = store_.fact_values(id);
            if (TryRow(op, args, vals.data(), vals.size(), k)) return true;
          }
          return false;
        }
      }
      for (int span = 0; span < 2; ++span) {
        for (const FactId* f = range.span_begin(span);
             f != range.span_end(span); ++f) {
          const std::vector<ValueId>& vals = store_.fact_values(*f);
          if (TryRow(op, args, vals.data(), vals.size(), k)) return true;
        }
      }
      return false;
    }
    if (const Tuple* single = range.single_tuple()) {
      // A binding: resolved into a stack row (a heap one only past
      // kInline values), so a candidate's IsBind atoms allocate nothing.
      ValueId inline_row[kInline];
      std::vector<ValueId> heap_row;
      ValueId* row = inline_row;
      if (single->size() > kInline) {
        heap_row.resize(single->size());
        row = heap_row.data();
      }
      for (size_t i = 0; i < single->size(); ++i) {
        row[i] = Resolve((*single)[i]);
      }
      return TryRow(op, args, row, single->size(), k);
    }
    // std::set mode: resolve every row once per evaluation.
    const std::vector<ValueId>& rows = Rows(*range.tuple_set());
    for (size_t at = 0; at < rows.size(); at += rows[at] + 1) {
      if (TryRow(op, args, &rows[at + 1], rows[at], k)) return true;
    }
    return false;
  }

  /// The rows of `set` as [length, id...] records.
  const std::vector<ValueId>& Rows(const std::set<Tuple>& set) {
    for (const auto& [source, rows] : rows_) {
      if (source == &set) return rows;
    }
    std::vector<ValueId> rows;
    for (const Tuple& t : set) {
      rows.push_back(static_cast<ValueId>(t.size()));
      for (const Value& v : t) rows.push_back(Resolve(v));
    }
    rows_.emplace_back(&set, std::move(rows));
    return rows_.back().second;
  }

  const Program& p_;
  const StructureView& view_;
  const store::Store& store_;
  ValueId inline_[kInline];
  std::vector<ValueId> heap_;
  ValueId* slots_;
  std::vector<Value> local_values_;
  std::unordered_map<Value, ValueId, ValueHash> local_ids_;
  /// A list (stable, and free while empty): an outer atom keeps
  /// scanning its rows while an inner atom adds another set's.
  std::list<std::pair<const std::set<Tuple>*, std::vector<ValueId>>> rows_;
};

}  // namespace

CompiledFormula::CompiledFormula()
    : program_(std::make_shared<const Program>()) {}

CompiledFormula::CompiledFormula(const PosFormulaPtr& f,
                                 const std::vector<std::string>& params) {
  auto program = std::make_shared<Program>();
  program->entry = Compiler(program.get()).Compile({f.get()}, params)[0];
  program_ = std::move(program);
}

CompiledFormula CompiledFormula::MultiEntry(
    const std::vector<const PosFormula*>& fs) {
  auto program = std::make_shared<Program>();
  std::vector<int> entries = Compiler(program.get()).Compile(fs, {});
  program->branches.insert(program->branches.end(), entries.begin(),
                           entries.end());
  program->branches.shrink_to_fit();
  program->num_entries = static_cast<uint32_t>(entries.size());
  CompiledFormula out;
  out.program_ = std::move(program);
  return out;
}

CompiledFormula CompiledFormula::Sentences(
    const std::vector<PosFormulaPtr>& sentences) {
  std::vector<const PosFormula*> fs;
  for (const PosFormulaPtr& f : sentences) {
    assert(f->IsSentence() && "Sentences requires closed formulas");
    fs.push_back(f.get());
  }
  return MultiEntry(fs);
}

CompiledFormula CompiledFormula::Entries(
    const std::vector<PosFormulaPtr>& formulas) {
  std::vector<const PosFormula*> fs;
  for (const PosFormulaPtr& f : formulas) fs.push_back(f.get());
  return MultiEntry(fs);
}

int CompiledFormula::FreeSlot(const std::string& name) const {
  for (const auto& [free_name, slot] : program_->free_slots) {
    if (free_name == name) return static_cast<int>(slot);
  }
  return -1;
}

bool CompiledFormula::Eval(const StructureView& view,
                           const std::vector<Value>& args) const {
  Machine m(*program_, view);
  m.BindParams(args);
  auto done = [] { return true; };
  return m.Exec(program_->entry, done);
}

void CompiledFormula::EvalEach(const StructureView& view,
                               std::vector<char>* truth) const {
  const Program& p = *program_;
  // Every operation undoes its bindings before it returns, so one
  // evaluation state serves the sentences in turn.
  Machine m(p, view);
  auto done = [] { return true; };
  const int* entries = p.branches.data() + p.branches.size() - p.num_entries;
  truth->resize(p.num_entries);
  for (uint32_t i = 0; i < p.num_entries; ++i) {
    (*truth)[i] = m.Exec(entries[i], done) ? 1 : 0;
  }
}

bool CompiledFormula::StreamEntry(const StructureView& view, uint32_t entry,
                                  bool (*k)(void*, const ValueId*),
                                  void* ctx) const {
  const Program& p = *program_;
  assert(entry < p.num_entries);
  Machine m(p, view);
  auto match = [&] { return k(ctx, m.slots()); };
  return m.Exec(p.branches[p.branches.size() - p.num_entries + entry], match);
}

std::set<Tuple> CompiledFormula::Answers(
    const StructureView& view, const std::vector<std::string>& head) const {
  std::vector<int64_t> head_slots;
  for (const std::string& name : head) {
    int64_t slot = -1;
    for (const auto& [free_name, s] : program_->free_slots) {
      if (free_name == name) slot = s;
    }
    head_slots.push_back(slot);
  }
  std::set<Tuple> answers;
  Machine m(*program_, view);
  auto collect = [&]() -> bool {
    Tuple row;
    row.reserve(head_slots.size());
    for (int64_t s : head_slots) {
      ValueId id = s < 0 ? kUnbound : m.slot(static_cast<uint32_t>(s));
      if (id == kUnbound) return false;  // head var unbound: skip
      row.push_back(m.Decode(id));
    }
    answers.insert(std::move(row));
    return false;  // keep enumerating
  };
  m.Exec(program_->entry, collect);
  return answers;
}

bool EvalSentence(const PosFormulaPtr& f, const StructureView& view) {
  assert(f->IsSentence() && "EvalSentence requires a closed formula");
  return CompiledFormula(f).Eval(view);
}

bool EvalWithEnv(const PosFormulaPtr& f, const StructureView& view,
                 const Env& env) {
  std::vector<std::string> names;
  std::vector<Value> values;
  for (const auto& [name, value] : env) {
    names.push_back(name);
    values.push_back(value);
  }
  return CompiledFormula(f, names).Eval(view, values);
}

std::set<Tuple> EnumerateAnswers(const PosFormulaPtr& f,
                                 const std::vector<std::string>& head,
                                 const StructureView& view) {
  return CompiledFormula(f).Answers(view, head);
}

bool EvalOnInstance(const PosFormulaPtr& f,
                    const schema::Instance& instance) {
  InstanceView view(instance);
  return EvalSentence(f, view);
}

bool EvalOnTransition(const PosFormulaPtr& f, const schema::Transition& t) {
  TransitionView view(t);
  return EvalSentence(f, view);
}

}  // namespace logic
}  // namespace accltl
