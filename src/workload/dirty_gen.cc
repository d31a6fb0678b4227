#include "workload/dirty_gen.h"

#include <cassert>

namespace certfix {

DirtyGenerator::DirtyGenerator(const Relation& master,
                               const Relation& non_master,
                               DirtyGenOptions options)
    : master_(&master),
      non_master_(&non_master),
      options_(options),
      rng_(options.seed) {
  assert(!master.empty());
  assert(!non_master.empty());
}

Value DirtyGenerator::Corrupt(const Value& v, DataType type) {
  (void)type;
  double kind = rng_.NextDouble();
  if (kind < 0.15 || v.is_null()) {
    // Missing value (like t2[str, zip] in Fig. 1a of the paper).
    return Value();
  }
  std::string s = v.ToString();
  if (kind < 0.55 && !s.empty()) {
    // Typo: substitute, insert, or delete one character.
    size_t pos = rng_.Index(s.size());
    switch (rng_.Uniform(0, 2)) {
      case 0:
        s[pos] = static_cast<char>('a' + rng_.Uniform(0, 25));
        break;
      case 1:
        s.insert(pos, 1, static_cast<char>('a' + rng_.Uniform(0, 25)));
        break;
      default:
        s.erase(pos, 1);
        break;
    }
    if (s.empty()) s = "x";
    return Value::Str(s);
  }
  // Replacement with an unrelated value.
  return Value::Str("wrong_" + rng_.AlphaString(4));
}

DirtyPair DirtyGenerator::Next() {
  DirtyPair pair;
  pair.from_master = rng_.Bernoulli(options_.duplicate_rate);
  const Relation& pool = pair.from_master ? *master_ : *non_master_;
  pair.clean = pool.at(rng_.Index(pool.size()));
  pair.dirty = Tuple(pair.clean.schema(), scratch_pool_);
  for (AttrId a = 0; a < pair.dirty.size(); ++a) {
    pair.dirty.Set(a, pair.clean.at(a));
    if (options_.protected_attrs.Contains(a)) continue;
    if (!rng_.Bernoulli(options_.noise_rate)) continue;
    Value corrupted =
        Corrupt(pair.dirty.at(a), pair.dirty.schema()->attr_type(a));
    if (corrupted == pair.dirty.at(a)) continue;
    pair.dirty.Set(a, std::move(corrupted));
    pair.corrupted.Add(a);
  }
  return pair;
}

std::vector<DirtyPair> DirtyGenerator::Generate(size_t n) {
  std::vector<DirtyPair> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(Next());
  return out;
}

}  // namespace certfix
