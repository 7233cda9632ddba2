package experiments

// Content-addressed cell memoization. A cell's key is a stable hash of its
// full input closure — everything the simulated result is a function of:
// the assembled program words, the machine configuration, the
// scheme/profile parameters of the toolchain, and any trace inputs. Given
// that closure, the simulator is deterministic, so a recorded result can
// be replayed byte-for-byte in place of re-simulating the cell (the same
// one-trace/many-configurations economics as the trace-driven cache
// studies in Smith's survey). Within one engine the key names a result in
// the engine's table (captures.go), which needs no store; the store only
// persists results across processes. The golden `-check` gate runs with
// the cache both cold and hot, so an unsound key — one that fails to cover
// part of the closure — shows up as table drift, not silent corruption.
//
// The closure rule for key builders: hash every input that can change the
// simulated outcome, and nothing that cannot (worker counts, wall-clock
// budgets). Machine configurations enter keys as spec digests
// (internal/spec): a MachineSpec *is* a memo key, and its digest covers
// every architectural config field (the field-coverage guard test in
// internal/spec red-flags a new field that is neither digested nor
// allowlisted as timing-neutral). Bump memoEpoch whenever the simulator's
// semantics change, so stale on-disk entries from older binaries can never
// replay into new tables.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io/fs"
	"math"
	"os"
	"path/filepath"

	"repro/internal/isa"
	"repro/internal/trace"
)

// memoSchema identifies the on-disk entry format.
const memoSchema = "mipsx-memo/v1"

// memoEpoch is folded into every key. Bump it when simulator semantics
// change (cycle accounting, pipeline behaviour, toolchain output), so that
// on-disk caches recorded by older binaries miss instead of replaying
// stale results. Epoch 3: machine configurations hash as MachineSpec
// digests instead of struct renderings (the results are unchanged, but
// every key derivation is new). Epoch 4: the obs cause schema gained
// context-switch and flush-refill (recorded obs.Reports carry two new
// zero rows), trace.Interleave widens its stride for wide member
// addresses, and scenario cells joined the store.
const memoEpoch = 4

// memoEntry is one recorded cell result.
type memoEntry struct {
	Schema string `json:"schema"`
	Key    string `json:"key"`
	// CellID is the recording cell's ID, kept for cache-dir forensics only;
	// it is not part of the identity (several cells may share one key).
	CellID string `json:"cell_id"`
	// Cycles is the simulated-cycle count the live run accounted to its
	// cell, replayed on a hit so hot and cold runs report identical
	// total_cycles_simulated.
	Cycles uint64 `json:"cycles"`
	// Attr is the per-cause decomposition of Cycles (the obs ledger maps the
	// live run accounted to its cell), replayed on a hit so hot and cold
	// runs report byte-identical attribution. Entries recorded before the
	// ledger existed can never replay: adding this field came with a
	// memoEpoch bump.
	Attr map[string]uint64 `json:"attr,omitempty"`
	Data json.RawMessage   `json:"data"`
}

// MemoStore is the on-disk result cache: a directory of JSON entries, one
// file per key, that persists results across processes. The zero store is
// not usable; call NewMemoStore.
type MemoStore struct{ dir string }

// NewMemoStore opens the store on dir, creating it if needed. dir == ""
// opens no store (nil): an engine shares results within itself without
// one.
func NewMemoStore(dir string) (*MemoStore, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("memo cache: %w", err)
	}
	return &MemoStore{dir: dir}, nil
}

func (s *MemoStore) path(key string) string {
	return filepath.Join(s.dir, key+".json")
}

// get returns the recorded entry for key. An entry that exists but cannot
// be read, does not parse, or carries another schema or key is a miss (a
// live run overwrites it) reported through err.
func (s *MemoStore) get(key string) (e memoEntry, ok bool, err error) {
	b, err := os.ReadFile(s.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return e, false, nil
	}
	if err == nil {
		err = json.Unmarshal(b, &e)
	}
	if err == nil && (e.Schema != memoSchema || e.Key != key) {
		err = fmt.Errorf("schema %q key %q", e.Schema, e.Key)
	}
	if err != nil {
		return e, false, fmt.Errorf("memo entry %s: %w", key, err)
	}
	return e, true, nil
}

// put records an entry on disk, returning any marshal, write or rename
// error. Racing duplicates are identical by construction (the simulator is
// deterministic over the key's closure), so last-write-wins is sound.
func (s *MemoStore) put(e memoEntry) error {
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	// Write-rename so a concurrent reader never sees a torn entry.
	tmp := s.path(e.Key) + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.path(e.Key)); err != nil {
		os.Remove(tmp) // best effort: the rename error is the one to report
		return err
	}
	return nil
}

// ---------------------------------------------------------------------------
// Key builder

// keyBuilder accumulates a cell's input closure into a sha256 hash. Every
// write is length- and label-framed, so adjacent fields can never alias
// (the hash-collision guard test exercises this).
type keyBuilder struct{ h hash.Hash }

// newKey starts a key for one kind of cell ("run", "vax", "cluster", ...);
// the kind and the memo epoch are the first framed fields.
func newKey(kind string) *keyBuilder {
	k := &keyBuilder{h: sha256.New()}
	k.str("epoch", fmt.Sprint(memoEpoch))
	k.str("kind", kind)
	return k
}

func (k *keyBuilder) frame(label string, n int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(label)))
	k.h.Write(buf[:])
	k.h.Write([]byte(label))
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	k.h.Write(buf[:])
}

// str hashes a labelled string field.
func (k *keyBuilder) str(label, s string) *keyBuilder {
	k.frame(label, len(s))
	k.h.Write([]byte(s))
	return k
}

// num hashes a labelled integer field.
func (k *keyBuilder) num(label string, n uint64) *keyBuilder {
	k.frame(label, 8)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], n)
	k.h.Write(buf[:])
	return k
}

// words hashes a labelled word slice (assembled program images).
func (k *keyBuilder) words(label string, ws []isa.Word) *keyBuilder {
	k.frame(label, 4*len(ws))
	var buf [4]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint32(buf[:], uint32(w))
		k.h.Write(buf[:])
	}
	return k
}

// flt hashes a labelled float field, bit-exact (the probabilities and
// biases in a SynthConfig are part of a trace's identity).
func (k *keyBuilder) flt(label string, f float64) *keyBuilder {
	return k.num(label, math.Float64bits(f))
}

// synth hashes a synthetic trace's full input closure: every SynthConfig
// field (each one steers the generator or its RNG) plus the reference
// count. Generator-semantics changes are covered by memoEpoch, like every
// other key.
func (k *keyBuilder) synth(label string, cfg trace.SynthConfig, refs int) *keyBuilder {
	k.num(label+".codewords", uint64(cfg.CodeWords))
	k.num(label+".funcs", uint64(cfg.Funcs))
	k.num(label+".avgrun", uint64(cfg.AvgRun))
	k.num(label+".avgloopiters", uint64(cfg.AvgLoopIters))
	k.flt(label+".callprob", cfg.CallProb)
	k.num(label+".hotfuncs", uint64(cfg.HotFuncs))
	k.flt(label+".hotbias", cfg.HotBias)
	k.num(label+".maxdepth", uint64(cfg.MaxDepth))
	k.num(label+".seed", uint64(cfg.Seed))
	k.num(label+".refs", uint64(refs))
	return k
}

// sum finalizes the key.
func (k *keyBuilder) sum() string {
	return hex.EncodeToString(k.h.Sum(nil))
}
