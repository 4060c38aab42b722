#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace sparta::ml {

namespace {

double gini(int count1, int total) {
  if (total == 0) return 0.0;
  const double p = static_cast<double>(count1) / total;
  return 2.0 * p * (1.0 - p);
}

}  // namespace

void DecisionTree::fit(std::span<const std::vector<double>> x, std::span<const int> y,
                       const TreeParams& params) {
  if (x.size() != y.size()) throw std::invalid_argument{"tree: |x| != |y|"};
  if (x.empty()) throw std::invalid_argument{"tree: empty training set"};
  nfeatures_ = x.front().size();
  for (const auto& row : x) {
    if (row.size() != nfeatures_) throw std::invalid_argument{"tree: ragged feature matrix"};
  }
  for (int label : y) {
    if (label != 0 && label != 1) throw std::invalid_argument{"tree: labels must be 0/1"};
  }
  nodes_.clear();
  std::vector<int> idx(x.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int>(i);
  build(x, y, idx, 0, static_cast<int>(idx.size()), 0, params);
}

int DecisionTree::build(std::span<const std::vector<double>> x, std::span<const int> y,
                        std::vector<int>& idx, int begin, int end, int depth,
                        const TreeParams& params) {
  const int n = end - begin;
  int count1 = 0;
  for (int i = begin; i < end; ++i) count1 += y[static_cast<std::size_t>(idx[static_cast<std::size_t>(i)])];

  const int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back({});
  nodes_[static_cast<std::size_t>(node_id)].samples = n;
  nodes_[static_cast<std::size_t>(node_id)].prob1 =
      n > 0 ? static_cast<double>(count1) / n : 0.0;

  const double node_gini = gini(count1, n);
  const bool pure = count1 == 0 || count1 == n;
  if (pure || depth >= params.max_depth || n < params.min_samples_split) return node_id;

  // Best split search: for each feature, sort this node's samples by the
  // feature value and sweep all midpoints.
  int best_feature = -1;
  double best_threshold = 0.0;
  double best_gain = 1e-12;
  std::vector<int> order(idx.begin() + begin, idx.begin() + end);
  for (std::size_t f = 0; f < nfeatures_; ++f) {
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return x[static_cast<std::size_t>(a)][f] < x[static_cast<std::size_t>(b)][f];
    });
    int left1 = 0;
    for (int i = 0; i < n - 1; ++i) {
      left1 += y[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
      const double v = x[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])][f];
      const double vn = x[static_cast<std::size_t>(order[static_cast<std::size_t>(i) + 1])][f];
      if (vn <= v) continue;  // no split point between equal values
      const int nl = i + 1;
      const int nr = n - nl;
      if (nl < params.min_samples_leaf || nr < params.min_samples_leaf) continue;
      const double g = node_gini - (static_cast<double>(nl) / n) * gini(left1, nl) -
                       (static_cast<double>(nr) / n) * gini(count1 - left1, nr);
      if (g > best_gain) {
        best_gain = g;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (v + vn);
      }
    }
  }
  if (best_feature < 0) return node_id;

  // Partition idx[begin, end) by the chosen split (stable to keep
  // determinism independent of the partition algorithm).
  const auto mid_it = std::stable_partition(
      idx.begin() + begin, idx.begin() + end, [&](int i) {
        return x[static_cast<std::size_t>(i)][static_cast<std::size_t>(best_feature)] <=
               best_threshold;
      });
  const int mid = static_cast<int>(mid_it - idx.begin());
  if (mid == begin || mid == end) return node_id;  // degenerate; keep as leaf

  nodes_[static_cast<std::size_t>(node_id)].feature = best_feature;
  nodes_[static_cast<std::size_t>(node_id)].threshold = best_threshold;
  nodes_[static_cast<std::size_t>(node_id)].impurity_decrease =
      best_gain * static_cast<double>(n);
  const int left = build(x, y, idx, begin, mid, depth + 1, params);
  nodes_[static_cast<std::size_t>(node_id)].left = left;
  const int right = build(x, y, idx, mid, end, depth + 1, params);
  nodes_[static_cast<std::size_t>(node_id)].right = right;
  return node_id;
}

double DecisionTree::predict_proba(std::span<const double> sample) const {
  if (nodes_.empty()) throw std::logic_error{"tree: not trained"};
  if (sample.size() != nfeatures_) throw std::invalid_argument{"tree: feature arity mismatch"};
  int cur = 0;
  while (nodes_[static_cast<std::size_t>(cur)].feature >= 0) {
    const auto& n = nodes_[static_cast<std::size_t>(cur)];
    cur = sample[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left : n.right;
  }
  return nodes_[static_cast<std::size_t>(cur)].prob1;
}

int DecisionTree::predict(std::span<const double> sample) const {
  return predict_proba(sample) >= 0.5 ? 1 : 0;
}

int DecisionTree::depth() const {
  std::function<int(int)> walk = [&](int id) -> int {
    const auto& n = nodes_[static_cast<std::size_t>(id)];
    if (n.feature < 0) return 0;
    return 1 + std::max(walk(n.left), walk(n.right));
  };
  return nodes_.empty() ? 0 : walk(0);
}

std::vector<double> DecisionTree::feature_importances() const {
  std::vector<double> imp(nfeatures_, 0.0);
  double total = 0.0;
  for (const auto& n : nodes_) {
    if (n.feature >= 0) {
      imp[static_cast<std::size_t>(n.feature)] += n.impurity_decrease;
      total += n.impurity_decrease;
    }
  }
  if (total > 0.0) {
    for (auto& v : imp) v /= total;
  }
  return imp;
}

void DecisionTree::save(std::ostream& os) const {
  os << "tree " << nfeatures_ << ' ' << nodes_.size() << '\n';
  os << std::setprecision(17);
  for (const auto& n : nodes_) {
    os << n.feature << ' ' << n.threshold << ' ' << n.left << ' ' << n.right << ' ' << n.prob1
       << ' ' << n.samples << ' ' << n.impurity_decrease << '\n';
  }
}

DecisionTree DecisionTree::load(std::istream& is) {
  std::string tag;
  std::size_t nfeatures = 0, nnodes = 0;
  if (!(is >> tag >> nfeatures >> nnodes) || tag != "tree") {
    throw std::runtime_error{"tree: malformed header"};
  }
  DecisionTree t;
  t.nfeatures_ = nfeatures;
  t.nodes_.resize(nnodes);
  for (auto& n : t.nodes_) {
    if (!(is >> n.feature >> n.threshold >> n.left >> n.right >> n.prob1 >> n.samples >>
          n.impurity_decrease)) {
      throw std::runtime_error{"tree: truncated node list"};
    }
  }
  // Structural sanity: child indices must stay inside the node array.
  for (const auto& n : t.nodes_) {
    if (n.feature >= 0) {
      if (n.feature >= static_cast<int>(nfeatures) || n.left < 0 || n.right < 0 ||
          n.left >= static_cast<int>(nnodes) || n.right >= static_cast<int>(nnodes)) {
        throw std::runtime_error{"tree: invalid node reference"};
      }
    }
  }
  return t;
}

std::string DecisionTree::to_text(std::span<const std::string> feature_names) const {
  std::ostringstream os;
  std::function<void(int, int)> walk = [&](int id, int indent) {
    const auto& n = nodes_[static_cast<std::size_t>(id)];
    const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
    if (n.feature < 0) {
      os << pad << "leaf p1=" << n.prob1 << " n=" << n.samples << '\n';
      return;
    }
    os << pad << "if ";
    if (static_cast<std::size_t>(n.feature) < feature_names.size()) {
      os << feature_names[static_cast<std::size_t>(n.feature)];
    } else {
      os << 'f' << n.feature;
    }
    os << " <= " << n.threshold << ":\n";
    walk(n.left, indent + 1);
    os << pad << "else:\n";
    walk(n.right, indent + 1);
  };
  if (!nodes_.empty()) walk(0, 0);
  return os.str();
}

}  // namespace sparta::ml
