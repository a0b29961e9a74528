package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

func fingerprintProfile(t *testing.T) workloads.Profile {
	t.Helper()
	p, err := workloads.ByName("505.mcf")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCellFingerprintStability pins the key derivation: fingerprints must
// be reproducible across processes (they address on-disk cache entries),
// insensitive to the Options fields that cannot change results, and
// sensitive to everything that can.
func TestCellFingerprintStability(t *testing.T) {
	prof := fingerprintProfile(t)
	opts := DefaultOptions()
	key := CellFingerprint("test/v1", core.MegaConfig(), core.KindBaseline, prof, opts)

	// Pinned literal: a silent change to the derivation (field order,
	// hash truncation, canonicalization) would orphan every persisted
	// cache entry; this test makes that loud. Regenerate the literal when
	// the derivation changes intentionally.
	const want = "6f4c41e6a63148e4a7989268cbb661b7"
	if key != want {
		t.Errorf("fingerprint drifted: got %s, want %s (intentional changes must update this literal)", key, want)
	}

	// Result-neutral knobs must not change the key.
	neutral := opts
	neutral.Parallelism = 7
	neutral.Progress = func(string, ...any) {}
	if got := CellFingerprint("test/v1", core.MegaConfig(), core.KindBaseline, prof, neutral); got != key {
		t.Error("Parallelism/Progress changed the fingerprint")
	}
	scale0, scale1 := opts, opts
	scale0.Scale, scale1.Scale = 0, 1
	if CellFingerprint("test/v1", core.MegaConfig(), core.KindBaseline, prof, scale0) !=
		CellFingerprint("test/v1", core.MegaConfig(), core.KindBaseline, prof, scale1) {
		t.Error("Scale 0 and 1 must fingerprint identically (RunOne clamps)")
	}

	// Result-affecting inputs must each change the key.
	variants := map[string]string{}
	add := func(name, k string) {
		if k == key {
			t.Errorf("%s: variant kept the base fingerprint", name)
		}
		if prev, ok := variants[k]; ok {
			t.Errorf("%s and %s collide", name, prev)
		}
		variants[k] = name
	}
	add("version", CellFingerprint("test/v2", core.MegaConfig(), core.KindBaseline, prof, opts))
	add("config", CellFingerprint("test/v1", core.SmallConfig(), core.KindBaseline, prof, opts))
	add("scheme", CellFingerprint("test/v1", core.MegaConfig(), core.KindNDA, prof, opts))
	warm := opts
	warm.WarmupCycles++
	add("warmup", CellFingerprint("test/v1", core.MegaConfig(), core.KindBaseline, prof, warm))
	meas := opts
	meas.MeasureCycles++
	add("measure", CellFingerprint("test/v1", core.MegaConfig(), core.KindBaseline, prof, meas))
	sc := opts
	sc.Scale = 2
	add("scale", CellFingerprint("test/v1", core.MegaConfig(), core.KindBaseline, prof, sc))
	other := prof
	other.Iters++
	add("profile", CellFingerprint("test/v1", core.MegaConfig(), core.KindBaseline, other, opts))
}

func fakeRun(bench string, kind core.SchemeKind, cycles uint64) Run {
	return Run{
		Bench: bench, Config: "mega", Scheme: kind,
		Cycles: cycles, Insts: 2 * cycles, IPC: 2,
		TotalCycles: cycles + 1000,
	}
}

func TestMemoryCacheLRU(t *testing.T) {
	c := NewMemoryCache(2)
	mustPut := func(key string, r Run) {
		t.Helper()
		if err := c.Put(key, r); err != nil {
			t.Fatal(err)
		}
	}
	mustPut("a", fakeRun("a", core.KindBaseline, 1))
	mustPut("b", fakeRun("b", core.KindBaseline, 2))
	if _, ok, _ := c.Get("a"); !ok { // bumps a over b
		t.Fatal("a missing")
	}
	mustPut("c", fakeRun("c", core.KindBaseline, 3)) // evicts b (LRU)
	if _, ok, _ := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	for _, key := range []string{"a", "c"} {
		if _, ok, _ := c.Get(key); !ok {
			t.Errorf("%s should have survived", key)
		}
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	// Refreshing an existing key must not grow the cache.
	mustPut("a", fakeRun("a", core.KindBaseline, 9))
	if c.Len() != 2 {
		t.Errorf("Len after refresh = %d, want 2", c.Len())
	}
	if r, ok, _ := c.Get("a"); !ok || r.Cycles != 9 {
		t.Errorf("refreshed entry = %+v, %v", r, ok)
	}
}

// TestDiskCacheRoundTrip: entries must survive a new DiskCache instance
// (the cross-process path behind -cache), and corrupt, mislabeled, or
// stale-scheme entries must read as misses, never as wrong results.
func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := fakeRun("505.mcf", core.KindNDA, 8000)
	if err := c1.Put("key1", want); err != nil {
		t.Fatal(err)
	}

	c2, err := NewDiskCache(dir) // fresh instance = fresh process
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := c2.Get("key1")
	if err != nil || !ok {
		t.Fatalf("Get = ok %v, err %v", ok, err)
	}
	if got != want {
		t.Errorf("round trip diverged:\ngot  %+v\nwant %+v", got, want)
	}
	if _, ok, err := c2.Get("missing"); ok || err != nil {
		t.Errorf("missing key: ok %v, err %v", ok, err)
	}

	// Corrupt entry: miss with a reported error.
	if err := os.WriteFile(filepath.Join(dir, "bad.cell"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c2.Get("bad"); ok || err == nil {
		t.Errorf("corrupt entry: ok %v, err %v; want miss with error", ok, err)
	}

	// An entry renamed to the wrong key must miss (content-addressing).
	if err := os.Rename(filepath.Join(dir, "key1.cell"), filepath.Join(dir, "key2.cell")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c2.Get("key2"); ok {
		t.Error("entry under a foreign key must miss")
	}

	// A stale scheme label (name no longer resolving to the run's kind)
	// must miss instead of mislabeling the result.
	stale := encodeCell("key3", "nda", fakeRun("505.mcf", core.KindSTTIssue, 8000))
	if err := os.WriteFile(filepath.Join(dir, "key3.cell"), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c2.Get("key3"); ok {
		t.Error("entry with a mismatched scheme label must miss")
	}
}

// everyFieldRun returns a Run whose every field, and every core.Stats
// field, holds a distinct non-zero value, set by reflection so a field
// added later is covered without editing the test.
func everyFieldRun(t testing.TB) Run {
	r := Run{Bench: "505.mcf", Config: "mega", Scheme: core.KindSTTRename, IPC: 1.0 / 3}
	n := uint64(1)
	var set func(v reflect.Value)
	set = func(v reflect.Value) {
		for i := range v.NumField() {
			f := v.Field(i)
			n += 0x123456789 // distinct, multi-byte varints
			switch {
			case !f.IsZero():
			case f.Kind() == reflect.Struct:
				set(f)
			case f.CanUint():
				f.SetUint(n)
			case f.CanInt():
				f.SetInt(-int64(n))
			default:
				t.Fatalf("Run field %s has kind %s: extend the cell codec and this test", v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	set(reflect.ValueOf(&r).Elem())
	return r
}

// TestCellCodecEveryField: every Run and core.Stats field survives the
// binary entry, so a field the codec drops fails here.
func TestCellCodecEveryField(t *testing.T) {
	want := everyFieldRun(t)
	key, scheme, got, err := decodeCell(encodeCell("k", want.Scheme.String(), want))
	if err != nil {
		t.Fatal(err)
	}
	if key != "k" || scheme != want.Scheme.String() || got != want {
		t.Errorf("round trip diverged (key %q, scheme %q):\ngot  %+v\nwant %+v", key, scheme, got, want)
	}
}

// withLayout returns entry with its core.Stats layout word replaced.
func withLayout(entry []byte, layout uint64) []byte {
	out := slices.Clone(entry)
	off := len(cellMagic) + 1 + len(CellSchema) // magic, schema length byte, schema
	binary.LittleEndian.PutUint64(out[off:], layout)
	return out
}

// TestDiskCacheRejectsOtherLayouts: an entry written under another
// core.Stats layout, a truncated or extended entry, one whose IPC is not a
// number (it could never round-trip), and a leftover v1 JSON entry all
// read as misses.
func TestDiskCacheRejectsOtherLayouts(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := everyFieldRun(t)
	entry := encodeCell("k", r.Scheme.String(), r)
	nan := r
	nan.IPC = math.NaN()
	for name, data := range map[string][]byte{
		"layout":    withLayout(entry, statsLayout+1),
		"truncated": entry[:len(entry)-1],
		"trailing":  append(slices.Clone(entry), 0),
		"nan ipc":   encodeCell("k", nan.Scheme.String(), nan),
	} {
		if err := os.WriteFile(filepath.Join(dir, "k.cell"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := c.Get("k"); ok || err == nil {
			t.Errorf("%s: ok %v, err %v; want a miss with an error", name, ok, err)
		}
	}

	// A v1 store's <key>.json is not an entry of this store at all.
	if err := os.Remove(filepath.Join(dir, "k.cell")); err != nil {
		t.Fatal(err)
	}
	v1 := `{"schema":"shadowbinding-cell/v1","key":"k","scheme":"stt-rename","run":{"Scheme":2}}`
	if err := os.WriteFile(filepath.Join(dir, "k.json"), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get("k"); ok || err != nil {
		t.Errorf("v1 entry: ok %v, err %v; want a plain miss", ok, err)
	}
}

// TestCellFingerprintMatchesJSON: the key assembled from memoized parts is
// byte for byte the hash of cellInputs' JSON encoding, for every
// registered configuration, scheme and profile and for version stamps
// that need escaping.
func TestCellFingerprintMatchesJSON(t *testing.T) {
	reference := func(version string, cfg core.Config, kind core.SchemeKind, prof workloads.Profile, opts Options) string {
		data, err := json.Marshal(cellInputs{
			Version: version, Config: cfg.Fingerprint(), Scheme: kind.String(), Profile: prof,
			Scale: max(opts.Scale, 1), Warmup: opts.WarmupCycles, Measure: opts.MeasureCycles,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		return hex.EncodeToString(sum[:16])
	}
	opts := DefaultOptions()
	odd := opts
	odd.Scale, odd.WarmupCycles, odd.MeasureCycles = 3, 1<<63+5, 0
	cfgs := append(core.Configs(), Gem5Spec().Configs...)
	for _, version := range []string{core.SimVersion, "", `q"<&>\x` + "\n\u2028é"} {
		for _, cfg := range cfgs {
			for _, kind := range core.SchemeKinds() {
				for _, prof := range workloads.Suite() {
					for _, o := range []Options{opts, odd} {
						if got, want := CellFingerprint(version, cfg, kind, prof, o), reference(version, cfg, kind, prof, o); got != want {
							t.Fatalf("%q/%s/%s/%s: key %s, want %s", version, cfg.Name, kind, prof.Name, got, want)
						}
					}
				}
			}
		}
	}
}

// FuzzDiskCacheEntry: arbitrary bytes on disk under a key make Get a miss
// or an error, never a panic, and a hit round-trips unchanged through
// Put and Get.
func FuzzDiskCacheEntry(f *testing.F) {
	prof, err := workloads.ByName("505.mcf")
	if err != nil {
		f.Fatal(err)
	}
	opts := sessionOptions()
	simulated, err := RunOne(core.MegaConfig(), core.KindNDA, prof, opts)
	if err != nil {
		f.Fatal(err)
	}
	key := CellFingerprint("test/v1", core.MegaConfig(), core.KindNDA, prof, opts)
	for _, r := range []Run{simulated, fakeRun("505.mcf", core.KindBaseline, 8000), everyFieldRun(f)} {
		entry := encodeCell(key, r.Scheme.String(), r)
		f.Add(entry)
		f.Add(entry[:len(entry)/2])
		f.Add(withLayout(entry, statsLayout^1))
	}
	f.Add([]byte(`{"schema":"shadowbinding-cell/v1","key":"` + key + `","scheme":"nda","run":{"Scheme":1}}`))
	f.Add([]byte("{nope"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		c, err := NewDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, key+".cell"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok, err := c.Get(key)
		if !ok {
			return
		}
		if err != nil {
			t.Fatalf("hit with an error: %v", err)
		}
		if err := c.Put(key, got); err != nil {
			t.Fatal(err)
		}
		again, ok, err := c.Get(key)
		if !ok || err != nil || again != got {
			t.Fatalf("hit did not round-trip (ok %v, err %v):\ngot  %+v\nwant %+v", ok, err, again, got)
		}
	})
}

// TestOpenCellCache: the memory-over-disk stack the harness builds from its
// constructors persists cells across stacks that share a directory, and an
// unusable directory is an error, not a silently memory-only cache.
func TestOpenCellCache(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cells")
	open := func() *TieredCache {
		disk, err := NewDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		return NewTieredCache(NewMemoryCache(0), disk)
	}
	want := fakeRun("505.mcf", core.KindBaseline, 4000)
	if err := open().Put("k", want); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := open().Get("k"); !ok || err != nil || got != want {
		t.Fatalf("second stack over the same dir: %+v, %v, %v", got, ok, err)
	}

	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDiskCache(filepath.Join(file, "sub")); err == nil {
		t.Error("unusable cache dir must error")
	}
}

// TestTieredCacheBackfill: a hit in a slower layer must be promoted into
// the faster ones.
func TestTieredCacheBackfill(t *testing.T) {
	mem := NewMemoryCache(8)
	disk, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTieredCache(mem, disk)

	want := fakeRun("525.x264", core.KindBaseline, 4000)
	if err := disk.Put("k", want); err != nil { // disk only: simulates a cold process
		t.Fatal(err)
	}
	if got, ok, err := tiered.Get("k"); !ok || err != nil || got != want {
		t.Fatalf("tiered Get = %+v, %v, %v", got, ok, err)
	}
	if got, ok, _ := mem.Get("k"); !ok || got != want {
		t.Error("hit was not promoted into the memory layer")
	}

	// Put writes through all layers.
	w2 := fakeRun("505.mcf", core.KindNDA, 5000)
	if err := tiered.Put("k2", w2); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := mem.Get("k2"); !ok {
		t.Error("write-through missed the memory layer")
	}
	if _, ok, _ := disk.Get("k2"); !ok {
		t.Error("write-through missed the disk layer")
	}
}
