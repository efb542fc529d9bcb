// TrGCN-lite: the two-layer graph neural network behind the ZSL-KG
// module (Nayak & Bach 2020; Section 3.2.4). Given a knowledge graph, a
// node-feature table (SCADS embeddings), and a center node, it
// aggregates the 2-hop neighbourhood with mean pooling plus per-layer
// self/neighbour transforms, and outputs a vector — trained to be the
// classification-head weight (and bias) of the center concept's class.
#pragma once

#include <istream>
#include <ostream>
#include <vector>

#include "graph/knowledge_graph.hpp"
#include "nn/layers.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace taglets::modules {

class TrGcn {
 public:
  struct Config {
    std::size_t input_dim = 16;   // node-feature width (SCADS embedding)
    std::size_t hidden_dim = 32;
    std::size_t output_dim = 33;  // feature_dim + 1 (head weight + bias)
    std::size_t max_neighbors = 16;
  };

  TrGcn(const Config& config, util::Rng& rng);

  const Config& config() const { return config_; }

  /// Class representation z_c = Z(center, G) (Section 3.2.4 step 1).
  tensor::Tensor predict(const graph::KnowledgeGraph& graph,
                         const tensor::Tensor& features,
                         graph::NodeId center) const;

  /// What a forward pass reads of the graph and the feature table for
  /// one center. None of it depends on the parameters, so training
  /// builds it once per center, not once per epoch.
  struct Inputs {
    // One entry per layer-1 node: the center, then its truncated hop-1
    // neighbour list.
    std::vector<tensor::Tensor> self_feats;    // e_v
    std::vector<tensor::Tensor> nbr_means;     // mean e of N(v)
  };
  Inputs inputs(const graph::KnowledgeGraph& graph,
                const tensor::Tensor& features, graph::NodeId center) const;

  /// One training forward that caches intermediates for backward().
  struct ForwardCache {
    const Inputs* inputs;                      // must outlive the cache
    std::vector<tensor::Tensor> pre1;          // pre-ReLU layer-1 activations
    std::vector<tensor::Tensor> h1;            // post-ReLU (center first)
    tensor::Tensor h1_mean;                    // mean over hop1 h1
    tensor::Tensor output;
  };
  ForwardCache forward(const Inputs& inputs) const;

  /// Accumulate parameter gradients for dL/d(output).
  void backward(const ForwardCache& cache, const tensor::Tensor& grad_output);

  std::vector<nn::Parameter*> parameters();
  void zero_grad();

  /// Parameter snapshot / restore (best-checkpoint keeping during
  /// pretraining, per Appendix A.5).
  std::vector<tensor::Tensor> snapshot() const;
  void restore(const std::vector<tensor::Tensor>& snapshot);

 private:
  /// Truncated, deterministic neighbour list.
  std::vector<graph::NodeId> neighbors_of(const graph::KnowledgeGraph& graph,
                                          graph::NodeId node) const;
  /// Mean feature of a node's neighbours (zero when none).
  tensor::Tensor neighbor_mean(const graph::KnowledgeGraph& graph,
                               const tensor::Tensor& features,
                               graph::NodeId node) const;

  Config config_;
  nn::Parameter w_self1_, w_nbr1_, b1_;
  nn::Parameter w_self2_, w_nbr2_, b2_;
};

}  // namespace taglets::modules
