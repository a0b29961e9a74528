package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/workloads"
)

// Cell fingerprinting. Every (config, scheme, benchmark, options) cell is
// content-addressed: its key is a stable hash of everything that can
// change the simulated result, plus a simulator version stamp
// (core.SimVersion by default). Equal keys mean equal results, so the
// engine executes each key at most once and the CellCache can persist
// results across processes; a model change bumps the stamp and orphans
// every stale entry instead of serving it.

// cellInputs is the canonical serialization the fingerprint hashes: the
// encoding/json encoding of this struct (fields in declaration order),
// which is stable for a given source tree — and the version stamp ties
// persisted keys to the modeled behaviour, not the source tree.
// CellFingerprint assembles exactly these bytes from memoized parts
// instead of marshalling the struct per cell.
type cellInputs struct {
	Version string            `json:"version"`
	Config  string            `json:"config"` // core.Config.Fingerprint()
	Scheme  string            `json:"scheme"` // registered name: stable across kind renumbering
	Profile workloads.Profile `json:"profile"`
	Scale   int               `json:"scale"`
	Warmup  uint64            `json:"warmup"`
	Measure uint64            `json:"measure"`
}

// keyPartsMemo bounds each memo of key parts. An evaluation has a handful
// of configurations and a few dozen profiles; a sweep over more distinct
// values than this just starts the memo over.
const keyPartsMemo = 256

// memo is a bounded, concurrency-safe cache of one derived value per
// input value.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
}

func (m *memo[K, V]) get(k K, derive func(K) V) V {
	m.mu.Lock()
	v, ok := m.m[k]
	m.mu.Unlock()
	if ok {
		return v
	}
	v = derive(k)
	m.mu.Lock()
	if m.m == nil || len(m.m) >= keyPartsMemo {
		m.m = make(map[K]V)
	}
	m.m[k] = v
	m.mu.Unlock()
	return v
}

// configFingerprints and profileJSON memoize the two expensive parts of
// every key: the configuration's fingerprint and the profile's canonical
// JSON. They hold parts, never whole keys, so every key is still hashed.
var (
	configFingerprints memo[core.Config, string]
	profileJSON        memo[workloads.Profile, []byte]
)

func marshalProfile(p workloads.Profile) []byte {
	data, err := json.Marshal(p)
	if err != nil {
		panic(fmt.Sprintf("harness: cell fingerprint profile %s: %v", p.Name, err))
	}
	return data
}

// CellFingerprint returns the content-addressed key of one cell under a
// version stamp. Only result-affecting Options fields participate:
// Parallelism and Progress change wall-clock behaviour, never results, so
// they are excluded and a sweep at any -j re-hits the same entries.
func CellFingerprint(version string, cfg core.Config, kind core.SchemeKind, prof workloads.Profile, opts Options) string {
	var buf [1024]byte
	b := append(buf[:0], `{"version":`...)
	b = appendJSONString(b, version)
	b = append(b, `,"config":`...)
	b = appendJSONString(b, configFingerprints.get(cfg, core.Config.Fingerprint))
	b = append(b, `,"scheme":`...)
	b = appendJSONString(b, kind.String())
	b = append(b, `,"profile":`...)
	b = append(b, profileJSON.get(prof, marshalProfile)...)
	b = append(b, `,"scale":`...)
	b = strconv.AppendInt(b, int64(max(opts.Scale, 1)), 10) // RunOne clamps the same way
	b = append(b, `,"warmup":`...)
	b = strconv.AppendUint(b, opts.WarmupCycles, 10)
	b = append(b, `,"measure":`...)
	b = strconv.AppendUint(b, opts.MeasureCycles, 10)
	b = append(b, '}')
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// appendJSONString appends s as encoding/json encodes it: printable ASCII
// that needs no escaping is copied between quotes, anything else goes
// through json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			data, _ := json.Marshal(s) // a string always marshals
			return append(b, data...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
