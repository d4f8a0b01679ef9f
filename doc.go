// Package repro is a from-scratch Go reproduction of "Trading Structure for
// Randomness in Wireless Opportunistic Routing" (Chachulski, MIT M.S.
// thesis, 2007 — the thesis form of the SIGCOMM 2007 MORE paper).
//
// The system under internal/ comprises the MORE protocol (internal/core),
// its GF(2^8) random linear network coding (internal/gf256,
// internal/coding), the ETX/EOTX routing theory of Chapter 5
// (internal/routing), a deterministic discrete-event 802.11b simulator
// standing in for the paper's 20-node testbed (internal/sim,
// internal/graph), the ExOR and Srcr baselines (internal/exor,
// internal/srcr), link probing (internal/probe), and the experiment drivers
// that regenerate every table and figure of the evaluation
// (internal/experiments).
//
// The coding data plane is built for throughput: internal/gf256 processes
// payloads eight bytes per uint64 via bit-plane decomposition and
// 4-bit-nibble subset tables (see kernel.go), internal/coding runs an
// allocation-free pooled packet pipeline in steady state, and the
// experiment drivers fan their independent simulation runs out over a
// bounded worker pool with per-item derived seeds, so every figure is
// byte-identical for any worker count. PERFORMANCE.md tracks the measured
// Table 4.1 numbers per PR.
//
// See README.md for a tour and ARCHITECTURE.md for the system inventory.
// cmd/morebench regenerates each table and figure at any scale (-fig,
// -table; -parallel for the worker pool, -json for machine-readable
// results), cmd/moresim runs one scenario, and bench/ holds the end-to-end
// benchmark with its per-layer drivers (go run ./bench -layers).
package repro
