// blink — graph-based similarity search with Locally-adaptive Vector
// Quantization (LVQ).
//
// Umbrella header: pulls in the full public API. Reproduction of
// "Similarity search in the blink of an eye with compressed indices"
// (VLDB 2023). See README.md for a tour and DESIGN.md for the system map.
//
// Most applications only need the facade in src/api/ — IndexSpec,
// Build(), Open(), the Index handle and the name->factory registry; the
// subsystem headers below are the implementation layers it fronts.
#pragma once

// Public facade: one spec, one Build, one self-describing Open.
#include "api/spec.h"
#include "api/index.h"
#include "api/registry.h"
#include "api/calibrate.h"

// Core quantization (the paper's contribution).
#include "quant/scalar.h"      // uniform scalar quantization (Eq. 1)
#include "quant/lvq.h"         // LVQ-B and LVQ-B1xB2 (Defs. 1-2), one arena
#include "quant/global.h"      // global / per-dimension baselines

// Optimized graph index (OG-LVQ).
#include "graph/graph.h"
#include "graph/storage.h"
#include "graph/search.h"
#include "graph/builder.h"
#include "graph/index.h"
#include "graph/dynamic.h"
#include "graph/serialize.h"
#include "graph/pruning_error.h"

// Sharded index (partition-then-probe at dataset scale).
#include "shard/partitioner.h"
#include "shard/sharded_index.h"
#include "shard/serialize.h"

// Concurrent serving engine + zero-downtime hot-swap.
#include "serve/engine.h"
#include "serve/generation.h"

// Network serving front end (frame protocol, server, client).
#include "net/socket.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/client.h"

// SIMD distance kernels.
#include "simd/distance.h"

// Baselines (same-harness comparisons).
#include "baselines/pq.h"
#include "baselines/opq.h"
#include "baselines/ivf.h"
#include "baselines/hnsw.h"
#include "baselines/scann.h"

// Data + evaluation.
#include "cluster/kmeans.h"
#include "data/synthetic.h"
#include "data/groundtruth.h"
#include "eval/interface.h"
#include "eval/metrics.h"
#include "eval/harness.h"
#include "eval/report.h"

// Utilities.
#include "util/env.h"
#include "util/epoch.h"
#include "util/float16.h"
#include "util/io.h"
#include "util/matrix.h"
#include "util/memory.h"
#include "util/prng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"
