#include "modules/trgcn.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/init.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace taglets::modules {

using graph::NodeId;
using tensor::Tensor;

namespace {

/// y += x W  (x rank-1 of size in, W (in,out), y rank-1 of size out).
void accumulate_affine(const Tensor& x, const Tensor& w, Tensor& y) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float xv = x[i];
    if (xv == 0.0f) continue;
    auto wrow = w.row(i);
    for (std::size_t j = 0; j < y.size(); ++j) y[j] += xv * wrow[j];
  }
}

/// dW += x (outer) g, skipping the rows where x is zero.
void accumulate_outer(const Tensor& x, const Tensor& g, Tensor& dw) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float xv = x[i];
    if (xv == 0.0f) continue;
    auto wrow = dw.row(i);
    for (std::size_t j = 0; j < g.size(); ++j) wrow[j] += xv * g[j];
  }
}

/// y += x elementwise.
void accumulate(const Tensor& x, Tensor& y) {
  for (std::size_t j = 0; j < x.size(); ++j) y[j] += x[j];
}

}  // namespace

TrGcn::TrGcn(const Config& config, util::Rng& rng)
    : config_(config),
      w_self1_(nn::kaiming_normal(config.input_dim, config.hidden_dim, rng)),
      w_nbr1_(nn::kaiming_normal(config.input_dim, config.hidden_dim, rng)),
      b1_(Tensor::zeros(config.hidden_dim)),
      w_self2_(nn::xavier_uniform(config.hidden_dim, config.output_dim, rng)),
      w_nbr2_(nn::xavier_uniform(config.hidden_dim, config.output_dim, rng)),
      b2_(Tensor::zeros(config.output_dim)) {}

std::vector<NodeId> TrGcn::neighbors_of(const graph::KnowledgeGraph& graph,
                                        NodeId node) const {
  std::vector<NodeId> out;
  for (const auto& nb : graph.neighbors(node)) out.push_back(nb.node);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  if (out.size() > config_.max_neighbors) out.resize(config_.max_neighbors);
  return out;
}

Tensor TrGcn::neighbor_mean(const graph::KnowledgeGraph& graph,
                            const Tensor& features, NodeId node) const {
  Tensor mean = Tensor::zeros(config_.input_dim);
  const auto nbrs = neighbors_of(graph, node);
  for (NodeId u : nbrs) {
    auto row = features.row(u);
    for (std::size_t d = 0; d < mean.size(); ++d) mean[d] += row[d];
  }
  if (!nbrs.empty()) {
    const float inv = 1.0f / static_cast<float>(nbrs.size());
    for (std::size_t d = 0; d < mean.size(); ++d) mean[d] *= inv;
  }
  return mean;
}

TrGcn::Inputs TrGcn::inputs(const graph::KnowledgeGraph& graph,
                            const Tensor& features, NodeId center) const {
  TAGLETS_CHECK(!(!features.is_matrix() ||
                features.cols() != config_.input_dim),
                "TrGcn::inputs: feature width mismatch");
  TAGLETS_CHECK_LT(center, features.rows(),
                   "TrGcn::inputs: center has no features");
  // Index 0 = center, then its hop-1 neighbours.
  std::vector<NodeId> layer1_nodes{center};
  const std::vector<NodeId> hop1 = neighbors_of(graph, center);
  layer1_nodes.insert(layer1_nodes.end(), hop1.begin(), hop1.end());
  Inputs in;
  for (NodeId v : layer1_nodes) {
    Tensor self_feat = Tensor::zeros(config_.input_dim);
    auto row = features.row(v);
    std::copy(row.begin(), row.end(), self_feat.data().begin());
    in.self_feats.push_back(std::move(self_feat));
    in.nbr_means.push_back(neighbor_mean(graph, features, v));
  }
  return in;
}

TrGcn::ForwardCache TrGcn::forward(const Inputs& inputs) const {
  ForwardCache cache;
  cache.inputs = &inputs;

  // Layer 1 on center + its hop-1 neighbours (index 0 = center).
  for (std::size_t i = 0; i < inputs.self_feats.size(); ++i) {
    Tensor pre = b1_.value;
    accumulate_affine(inputs.self_feats[i], w_self1_.value, pre);
    accumulate_affine(inputs.nbr_means[i], w_nbr1_.value, pre);
    Tensor post = pre;
    for (float& x : post.data()) x = x > 0.0f ? x : 0.0f;
    cache.pre1.push_back(std::move(pre));
    cache.h1.push_back(std::move(post));
  }

  // Layer 2: center transform + mean over hop-1 h1.
  cache.h1_mean = Tensor::zeros(config_.hidden_dim);
  for (std::size_t i = 1; i < cache.h1.size(); ++i) {
    for (std::size_t d = 0; d < config_.hidden_dim; ++d) {
      cache.h1_mean[d] += cache.h1[i][d];
    }
  }
  if (cache.h1.size() > 1) {
    const float inv = 1.0f / static_cast<float>(cache.h1.size() - 1);
    for (float& x : cache.h1_mean.data()) x *= inv;
  }
  Tensor out = b2_.value;
  accumulate_affine(cache.h1[0], w_self2_.value, out);
  accumulate_affine(cache.h1_mean, w_nbr2_.value, out);
  cache.output = std::move(out);
  return cache;
}

Tensor TrGcn::predict(const graph::KnowledgeGraph& graph,
                      const Tensor& features, NodeId center) const {
  const Inputs in = inputs(graph, features, center);
  return forward(in).output;
}

void TrGcn::backward(const ForwardCache& cache, const Tensor& grad_output) {
  TAGLETS_CHECK_EQ(grad_output.size(), config_.output_dim,
                   "TrGcn::backward: grad dim mismatch");
  // Layer 2 parameter grads.
  accumulate_outer(cache.h1[0], grad_output, w_self2_.grad);
  accumulate(grad_output, b2_.grad);
  accumulate_outer(cache.h1_mean, grad_output, w_nbr2_.grad);

  // Gradients into layer-1 activations: W_self2 g for the center, and
  // the same share W_nbr2 g / |hop1| for every hop-1 neighbour.
  const std::size_t n_nbrs = cache.h1.size() - 1;
  Tensor dh1_center = Tensor::zeros(config_.hidden_dim);
  for (std::size_t d = 0; d < config_.hidden_dim; ++d) {
    auto wrow = w_self2_.value.row(d);
    float acc = 0.0f;
    for (std::size_t j = 0; j < config_.output_dim; ++j) {
      acc += wrow[j] * grad_output[j];
    }
    dh1_center[d] = acc;
  }
  Tensor dh1_nbr = Tensor::zeros(config_.hidden_dim);
  if (n_nbrs > 0) {
    const float inv = 1.0f / static_cast<float>(n_nbrs);
    for (std::size_t d = 0; d < config_.hidden_dim; ++d) {
      auto wrow = w_nbr2_.value.row(d);
      float acc = 0.0f;
      for (std::size_t j = 0; j < config_.output_dim; ++j) {
        acc += wrow[j] * grad_output[j];
      }
      dh1_nbr[d] = acc * inv;
    }
  }

  // Layer 1 parameter grads through the ReLU.
  for (std::size_t i = 0; i < cache.h1.size(); ++i) {
    Tensor da = i == 0 ? dh1_center : dh1_nbr;
    for (std::size_t d = 0; d < config_.hidden_dim; ++d) {
      if (cache.pre1[i][d] <= 0.0f) da[d] = 0.0f;
    }
    accumulate_outer(cache.inputs->self_feats[i], da, w_self1_.grad);
    accumulate(da, b1_.grad);
    accumulate_outer(cache.inputs->nbr_means[i], da, w_nbr1_.grad);
  }
}

std::vector<nn::Parameter*> TrGcn::parameters() {
  return {&w_self1_, &w_nbr1_, &b1_, &w_self2_, &w_nbr2_, &b2_};
}

void TrGcn::zero_grad() {
  for (nn::Parameter* p : parameters()) p->zero_grad();
}

std::vector<Tensor> TrGcn::snapshot() const {
  return {w_self1_.value, w_nbr1_.value, b1_.value,
          w_self2_.value, w_nbr2_.value, b2_.value};
}

void TrGcn::restore(const std::vector<Tensor>& snapshot) {
  TAGLETS_CHECK_EQ(snapshot.size(), 6, "TrGcn::restore");
  w_self1_.value = snapshot[0];
  w_nbr1_.value = snapshot[1];
  b1_.value = snapshot[2];
  w_self2_.value = snapshot[3];
  w_nbr2_.value = snapshot[4];
  b2_.value = snapshot[5];
}

}  // namespace taglets::modules
