#include "gen.h"

#include <cmath>
#include <sstream>

namespace perfbench {
namespace {

/// One subscript row: coefficient per loop level.
using Row = std::vector<int>;

std::string affine_text(const Row& row, int offset) {
  std::ostringstream out;
  bool first = true;
  for (size_t k = 0; k < row.size(); ++k) {
    if (row[k] == 0) continue;
    if (!first) out << " + ";
    if (row[k] != 1) out << row[k] << "*";
    out << "i" << (k + 1);
    first = false;
  }
  if (first) {
    out << offset;
  } else if (offset > 0) {
    out << " + " << offset;
  } else if (offset < 0) {
    out << " - " << -offset;
  }
  return out.str();
}

/// Access matrix of one array: rows over the loop levels.
std::vector<Row> access_matrix(SplitMix64& rng, int depth) {
  std::vector<Row> rows;
  if (depth == 1) return {Row{1}};
  if (depth == 2 && rng.range(0, 2) == 0) {
    // A 1-d array under a 2-deep nest (the paper's Example 8 regime).
    return {Row{static_cast<int>(rng.range(1, 3)), static_cast<int>(rng.range(1, 5))}};
  }
  // Two subscripts, each driven by a distinct loop level; a third of the
  // time a second level is folded in (a diagonal access).
  int a = static_cast<int>(rng.range(0, depth - 1));
  int b = static_cast<int>(rng.range(0, depth - 2));
  if (b >= a) ++b;
  for (int lead : {a, b}) {
    Row r(static_cast<size_t>(depth), 0);
    r[static_cast<size_t>(lead)] = 1;
    if (rng.range(0, 2) == 0) {
      int extra = static_cast<int>(rng.range(0, depth - 1));
      if (extra != lead) r[static_cast<size_t>(extra)] = 1;
    }
    rows.push_back(r);
  }
  return rows;
}

std::string ref_text(const std::string& name, const std::vector<Row>& m,
                     SplitMix64& structure, int shift) {
  std::string out = name;
  for (const Row& r : m) {
    out += "[" + affine_text(r, shift + static_cast<int>(structure.range(0, 4))) + "]";
  }
  return out;
}

}  // namespace

std::string generate_nest(SplitMix64& structure, SplitMix64& rng,
                          const NestShape& shape, const std::string& label) {
  // Split log(volume) over the levels with random weights, then fix the
  // innermost extent so the product lands near the target.
  const int d = shape.depth;
  std::vector<double> w(static_cast<size_t>(d));
  double wsum = 0.0;
  for (double& x : w) {
    x = 0.9 + 0.2 * rng.unit();
    wsum += x;
  }
  const double logv = std::log(static_cast<double>(shape.volume));
  std::vector<std::int64_t> ext(static_cast<size_t>(d));
  double used = 1.0;
  for (int k = 0; k < d - 1; ++k) {
    ext[static_cast<size_t>(k)] = std::max<std::int64_t>(
        3, std::llround(std::exp(logv * w[static_cast<size_t>(k)] / wsum)));
    used *= static_cast<double>(ext[static_cast<size_t>(k)]);
  }
  ext[static_cast<size_t>(d - 1)] = std::max<std::int64_t>(
      3, std::llround(static_cast<double>(shape.volume) / used));

  std::vector<Row> ma = access_matrix(structure, d);
  std::vector<Row> mb = access_matrix(structure, d);
  // A per-array shift common to every reference of that array moves its
  // address range without changing any dependence distance.
  const int shift_a = static_cast<int>(rng.range(0, 3));
  const int shift_b = static_cast<int>(rng.range(0, 3));
  std::vector<std::string> reads;
  for (int r = 1; r < shape.refs; ++r) {
    // At least one read of A (the reuse the optimizer works on); later
    // reads pick A or B.
    bool on_a = r == 1 || structure.range(0, 1) == 0;
    reads.push_back(on_a ? ref_text("A", ma, structure, shift_a)
                         : ref_text("B", mb, structure, shift_b));
  }

  std::ostringstream out;
  out << "# " << label << "\n";
  for (int k = 0; k < d; ++k) {
    out << std::string(static_cast<size_t>(2 * k), ' ') << "for i" << (k + 1)
        << " = 1 to " << ext[static_cast<size_t>(k)] << "\n";
  }
  out << std::string(static_cast<size_t>(2 * d), ' ')
      << ref_text("A", ma, structure, shift_a)
      << " = ";
  for (size_t r = 0; r < reads.size(); ++r) out << (r ? " + " : "") << reads[r];
  out << ";\n";
  return out.str();
}

std::string interchange_plan(int depth) {
  if (depth <= 1) return "1";
  std::ostringstream out;
  for (int r = 0; r < depth; ++r) {
    int col = r;
    if (r == depth - 2) col = depth - 1;
    if (r == depth - 1) col = depth - 2;
    if (r) out << "; ";
    for (int c = 0; c < depth; ++c) out << (c ? " " : "") << (c == col ? 1 : 0);
  }
  return out.str();
}

}  // namespace perfbench
