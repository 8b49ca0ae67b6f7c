package harness

import (
	_ "embed"
	"time"

	"islands/internal/resultstore"
)

// This file wires the persistent result store (internal/resultstore) into
// the executor: semantic cell keys, the code-fingerprint salt that makes
// stale caches self-invalidate, and the store constructor the facade and
// cmds use.
//
// A deployment cell's key is its plan hashed (plan.key): everything the
// simulation consumes — the machine (geometry, interconnect hop matrix,
// latency scale), the built core.Config, the workload spec, the window
// geometry, the effective seed and the effective quick/short mode — so a
// record written by a sequential run serves a parallel run of the same
// cell. Cells built from opaque closures (ScalarCell, raw Cells) have no
// plan to hash; they fall back to positional keys over (study ID, cell
// name, options), which is sound for the registered experiments because a
// registered cell's behavior is a pure function of the code — and the code
// is in the salt.

// goldenFingerprint is the quick-mode experiment fingerprint the test suite
// pins. Any change to simulated behavior changes this file (that is the
// repo's re-baselining discipline), which makes it the natural code
// fingerprint: hashing it into every cell key means a build whose simulated
// behavior moved cannot serve records written by the old behavior.
//
//go:embed testdata/quick_fingerprint_seed42.golden
var goldenFingerprint []byte

// storeEpoch versions the key derivation itself. Bump it when the key
// scheme changes in a way the golden fingerprint cannot see (a field left
// out of or added to a key, a changed fallback), to invalidate every
// existing record. v2: every deployment cell's key gained the window
// geometry frames when the cell kinds moved onto one plan.
const storeEpoch = "islands-resultstore-v2"

// codeSalt returns the code-fingerprint salt prefixed to every cell key.
func codeSalt() []byte {
	h := resultstore.NewHasher()
	h.Str(storeEpoch)
	h.Bytes(goldenFingerprint)
	k := h.Sum()
	return k[:]
}

var cachedSalt = codeSalt()

// OpenStore opens (creating if needed) a result store for this harness's
// cell payloads under dir.
func OpenStore(dir string) (*resultstore.Store, error) {
	return resultstore.Open(dir, Metrics{})
}

// cellKey derives the content-addressed key of one cell under the given
// options: the code salt, then the cell's semantic identity (its Key hook)
// or the positional fallback.
func cellKey(planID string, c *Cell, opt Options) resultstore.Key {
	h := resultstore.NewHasher()
	h.Bytes(cachedSalt)
	if c.Key != nil {
		c.Key(opt, h)
	} else {
		h.Str("positional")
		h.Str(planID)
		h.Str(c.Name)
		keyOptions(h, opt)
	}
	return h.Sum()
}

// keyOptions hashes the option-derived inputs every cell consumes: the
// (already delta-adjusted) seed and the measurement mode. Parallel is
// deliberately absent — the determinism contract says it never changes
// results, and excluding it is what lets runs at different parallelism
// settings share one cache.
func keyOptions(h *resultstore.Hasher, opt Options) {
	h.I64(opt.Seed)
	h.Bool(opt.Quick)
	h.Bool(opt.Short)
}

// hintFor returns the dispatch-cost estimate of a cell: the learned
// wall-clock from the store when one is recorded under the cell's name,
// else the static CostHint. Learned hints are seconds and static hints
// are small ranks, but precision is irrelevant here — order only changes
// wall-clock, never results (pinned by TestStoreReorderKeepsTables).
func hintFor(st *resultstore.Store, c *Cell) float64 {
	if st != nil {
		if d, ok := st.Hint(c.Name); ok {
			return d.Seconds()
		}
	}
	return c.CostHint
}

// minHintElapsed is the threshold under which a cell's wall-clock is not
// worth a hint record (cache hits and trivial cells).
const minHintElapsed = 100 * time.Microsecond
