// Pins the canonical request key (src/service/canonical.h): the exact
// options-key field order, the Joined() layout the result cache keys
// on, and the name-canonicalization that makes the key name-free. A
// renamed schema must give an equal key; changing any non-name field
// of a schema must give a different one.
//
// The options-key literal below is deliberately brittle: a silent
// reorder (or a dropped field) would alias requests with different
// answers onto one cache line. Adding a NEW field is fine — extend the
// literal here in the same change.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/accltl/parser.h"
#include "src/schema/text_format.h"
#include "src/service/canonical.h"
#include "src/workload/workload.h"

namespace accltl {
namespace {

using service::CanonicalOptionsKey;
using service::CanonicalRequestKey;
using service::MakeCanonicalRequestKey;
using service::PrepareOptions;

class CanonicalKeyTest : public ::testing::Test {
 protected:
  CanonicalKeyTest() : pd_(workload::MakePhoneDirectory()) {}

  acc::AccPtr Parse(const std::string& text, const schema::Schema& s) {
    Result<acc::AccPtr> r = acc::ParseAccFormula(text, s);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value() : acc::AccFormula::False();
  }

  /// The phone-directory schema rebuilt after `edit` has changed its
  /// relations and methods.
  schema::Schema Edited(
      const std::function<void(std::vector<schema::Relation>*,
                               std::vector<schema::AccessMethod>*)>& edit)
      const {
    std::vector<schema::Relation> relations;
    std::vector<schema::AccessMethod> methods;
    for (schema::RelationId r = 0; r < pd_.schema.num_relations(); ++r) {
      relations.push_back(pd_.schema.relation(r));
    }
    for (schema::AccessMethodId m = 0; m < pd_.schema.num_access_methods();
         ++m) {
      methods.push_back(pd_.schema.method(m));
    }
    edit(&relations, &methods);
    schema::Schema out;
    for (const schema::Relation& r : relations) {
      out.AddRelation(r.name, r.position_types);
    }
    for (const schema::AccessMethod& am : methods) {
      out.AddAccessMethod(am.name, am.relation, am.input_positions, am.exact,
                          am.idempotent, am.result_bound);
    }
    return out;
  }

  /// The phone-directory schema with every relation/method name
  /// prefixed; ids, arities and input positions unchanged.
  schema::Schema RenamedSchema() const {
    return Edited([](std::vector<schema::Relation>* relations,
                     std::vector<schema::AccessMethod>* methods) {
      for (schema::Relation& r : *relations) r.name = "X" + r.name;
      for (schema::AccessMethod& am : *methods) am.name = "X" + am.name;
    });
  }

  workload::PhoneDirectory pd_;
};

TEST_F(CanonicalKeyTest, OptionsKeyFieldOrderIsPinned) {
  PrepareOptions o;
  o.grounded = true;
  o.use_datalog_pipeline = false;
  o.shrink_witness = true;
  o.zero.grounded = false;
  o.zero.require_idempotent = true;
  o.zero.max_nodes = 11;
  o.zero.max_facts_per_step = 12;
  o.zero.max_path_length = 13;
  o.zero.max_subsets_per_access = 14;
  o.bounded.max_path_length = 21;
  o.bounded.grounded = true;
  o.bounded.require_idempotent = false;
  o.bounded.require_exact = true;
  o.bounded.max_nodes = 22;
  o.bounded.max_realizations_per_step = 23;
  o.decompose.max_variants = 31;
  o.decompose.max_phi = 32;
  o.decompose.max_stages = 33;
  EXPECT_EQ(CanonicalOptionsKey(o),
            "grounded=1;datalog=0;shrink=1;"
            "z.grounded=0;z.idem=1;z.max_nodes=11;z.max_facts=12;"
            "z.max_len=13;z.max_subsets=14;"
            "b.max_len=21;b.grounded=1;b.idem=0;b.exact=1;b.max_nodes=22;"
            "b.max_real=23;"
            "d.max_variants=31;d.max_phi=32;d.max_stages=33;");
}

TEST_F(CanonicalKeyTest, JoinedIsSchemaNewlineFormulaNewlineOptions) {
  acc::AccPtr f =
      Parse("F [EXISTS n,p,s,ph . Mobile_post(n,p,s,ph)]", pd_.schema);
  PrepareOptions o;
  CanonicalRequestKey key = MakeCanonicalRequestKey(pd_.schema, f, o);
  schema::Schema canon = service::CanonicalizeSchemaNames(pd_.schema);
  EXPECT_EQ(key.schema_text, schema::SerializeSchema(canon));
  EXPECT_EQ(key.formula_text, f->ToString(canon));
  EXPECT_EQ(key.options_text, CanonicalOptionsKey(o));
  EXPECT_EQ(key.Joined(), key.schema_text + "\n" + key.formula_text + "\n" +
                              key.options_text);
}

TEST_F(CanonicalKeyTest, CanonicalizeSchemaNamesIsPositionalAndIdStable) {
  schema::Schema canon = service::CanonicalizeSchemaNames(pd_.schema);
  ASSERT_EQ(canon.num_relations(), pd_.schema.num_relations());
  ASSERT_EQ(canon.num_access_methods(), pd_.schema.num_access_methods());
  for (schema::RelationId r = 0; r < canon.num_relations(); ++r) {
    EXPECT_EQ(canon.relation(r).name, "R" + std::to_string(r));
    EXPECT_EQ(canon.relation(r).position_types,
              pd_.schema.relation(r).position_types);
  }
  for (schema::AccessMethodId m = 0; m < canon.num_access_methods(); ++m) {
    EXPECT_EQ(canon.method(m).name, "M" + std::to_string(m));
    EXPECT_EQ(canon.method(m).relation, pd_.schema.method(m).relation);
    EXPECT_EQ(canon.method(m).input_positions,
              pd_.schema.method(m).input_positions);
    EXPECT_EQ(canon.method(m).exact, pd_.schema.method(m).exact);
    EXPECT_EQ(canon.method(m).idempotent, pd_.schema.method(m).idempotent);
    EXPECT_EQ(canon.method(m).result_bound,
              pd_.schema.method(m).result_bound);
  }
  // Renaming a schema changes nothing the canonicalization keeps:
  // byte-equal serializations.
  schema::Schema canon_renamed =
      service::CanonicalizeSchemaNames(RenamedSchema());
  EXPECT_EQ(schema::SerializeSchema(canon),
            schema::SerializeSchema(canon_renamed));
}

TEST_F(CanonicalKeyTest, RenamedSchemaGivesAnEqualKey) {
  PrepareOptions o;
  std::string base =
      MakeCanonicalRequestKey(
          pd_.schema,
          Parse("F [EXISTS n,p,s,ph . Mobile_post(n,p,s,ph)]", pd_.schema), o)
          .Joined();
  schema::Schema renamed = RenamedSchema();
  std::string twin =
      MakeCanonicalRequestKey(
          renamed,
          Parse("F [EXISTS n,p,s,ph . XMobile_post(n,p,s,ph)]", renamed), o)
          .Joined();
  EXPECT_EQ(base, twin);
  // No name of either schema survives into the key.
  EXPECT_EQ(base.find("Mobile"), std::string::npos);
  EXPECT_EQ(base.find("AcM"), std::string::npos);
}

TEST_F(CanonicalKeyTest, EachNonNameSchemaFieldChangesTheKey) {
  // One AST for every variant: it refers to predicates by id, and no
  // edit below changes an arity or a method's input count.
  acc::AccPtr f = Parse(
      "F [EXISTS n . IsBind_AcM1(n) AND (EXISTS s,p,h . Address_pre(s,p,n,h))]",
      pd_.schema);
  PrepareOptions o;
  std::string base = MakeCanonicalRequestKey(pd_.schema, f, o).Joined();
  using Relations = std::vector<schema::Relation>;
  using Methods = std::vector<schema::AccessMethod>;
  struct Edit {
    const char* field;
    std::function<void(Relations*, Methods*)> apply;
  };
  const Edit edits[] = {
      {"position type",
       [](Relations* r, Methods*) {
         (*r)[0].position_types[3] = ValueType::kString;
       }},
      {"input set",
       [](Relations*, Methods* m) { (*m)[0].input_positions = {1}; }},
      {"exact", [](Relations*, Methods* m) { (*m)[0].exact = true; }},
      {"idempotent",
       [](Relations*, Methods* m) { (*m)[0].idempotent = true; }},
      {"result_bound",
       [](Relations*, Methods* m) { (*m)[0].result_bound = 2; }},
      {"method relation",
       [](Relations*, Methods* m) { (*m)[0].relation = 1; }},
  };
  for (const Edit& e : edits) {
    schema::Schema variant = Edited(e.apply);
    EXPECT_NE(MakeCanonicalRequestKey(variant, f, o).Joined(), base)
        << e.field;
  }
}

}  // namespace
}  // namespace accltl
