package harness

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"

	"repro/internal/core"
)

// The binary cell entry: the on-disk form of one cell result (DiskCache).
// All integers are varints, strings are length-prefixed, and the fields
// follow in this order:
//
//	magic       4 bytes "SBC\x00"
//	schema      string, CellSchema
//	layout      8 bytes, little endian: statsLayout
//	key         string, the cell's content-addressed key
//	scheme      string, the run's registered scheme name
//	bench       string
//	config      string
//	kind        uvarint, the run's core.SchemeKind
//	cycles      uvarint
//	insts       uvarint
//	ipc         8 bytes, little endian: IEEE 754 bits
//	totalCycles uvarint
//	stats       every core.Stats field in declaration order: uvarint for
//	            the uint64 counters, zig-zag varint for the int marks
//
// Decoding is strict: a wrong magic, schema or layout, a truncated or
// overlong varint, an oversized string, a non-finite IPC, or bytes left
// over is an error.
// The layout word fingerprints core.Stats' field names and kinds, so an
// entry written before a Stats field was added, removed, renamed or
// retyped is rejected instead of decoded into the wrong fields.

// CellSchema identifies the cell entry layout. v2 is the binary entry
// (v1 was an indented JSON file per cell, which DiskCache no longer reads).
const CellSchema = "shadowbinding-cell/v2"

var cellMagic = [4]byte{'S', 'B', 'C', 0}

// maxCellString bounds every string of an entry: keys are 32 hex digits
// and names a few dozen bytes, so a longer length is corruption.
const maxCellString = 256

// statsKinds lists the kind of every core.Stats field in declaration
// order — uint64 for counters, int for high-water marks — and
// statsLayout hashes their names and kinds.
var statsKinds, statsLayout = statsFieldLayout()

func statsFieldLayout() ([]reflect.Kind, uint64) {
	t := reflect.TypeOf(core.Stats{})
	kinds := make([]reflect.Kind, t.NumField())
	h := fnv.New64a()
	for i := range kinds {
		f := t.Field(i)
		kinds[i] = f.Type.Kind()
		if kinds[i] != reflect.Uint64 && kinds[i] != reflect.Int {
			panic(fmt.Sprintf("harness: core.Stats.%s has kind %s; the cell codec encodes uint64 and int", f.Name, kinds[i]))
		}
		fmt.Fprintf(h, "%s %s\n", f.Name, kinds[i])
	}
	return kinds, h.Sum64()
}

// encodeCell returns the entry for run r under key and scheme, the run's
// registered scheme name.
func encodeCell(key, scheme string, r Run) []byte {
	b := make([]byte, 0, 256)
	b = append(b, cellMagic[:]...)
	b = appendString(b, CellSchema)
	b = binary.LittleEndian.AppendUint64(b, statsLayout)
	b = appendString(b, key)
	b = appendString(b, scheme)
	b = appendString(b, r.Bench)
	b = appendString(b, r.Config)
	b = binary.AppendUvarint(b, uint64(r.Scheme))
	b = binary.AppendUvarint(b, r.Cycles)
	b = binary.AppendUvarint(b, r.Insts)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.IPC))
	b = binary.AppendUvarint(b, r.TotalCycles)
	sv := reflect.ValueOf(r.Stats)
	for i, k := range statsKinds {
		if k == reflect.Uint64 {
			b = binary.AppendUvarint(b, sv.Field(i).Uint())
		} else {
			b = binary.AppendVarint(b, sv.Field(i).Int())
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// decodeCell parses one entry, returning the key and scheme name it was
// written under and its run. It checks the layout only; what the entry
// claims (its key and scheme name) is ValidateCell's to check.
func decodeCell(data []byte) (key, scheme string, r Run, err error) {
	d := cellDecoder{b: data}
	if len(data) < len(cellMagic) || [4]byte(data[:4]) != cellMagic {
		return "", "", Run{}, errors.New("not a cell entry (bad magic)")
	}
	d.b = d.b[len(cellMagic):]
	if schema := d.str(); d.err == nil && schema != CellSchema {
		return "", "", Run{}, fmt.Errorf("cell schema %q, want %q", schema, CellSchema)
	}
	if layout := d.fixed64(); d.err == nil && layout != statsLayout {
		return "", "", Run{}, fmt.Errorf("stats layout %016x, want %016x (written by a build with other core.Stats fields)", layout, statsLayout)
	}
	key, scheme = d.str(), d.str()
	r.Bench, r.Config = d.str(), d.str()
	kind := d.uvarint()
	if kind > math.MaxUint8 {
		d.fail(fmt.Errorf("scheme kind %d out of range", kind))
	}
	r.Scheme = core.SchemeKind(kind)
	r.Cycles, r.Insts = d.uvarint(), d.uvarint()
	if r.IPC = math.Float64frombits(d.fixed64()); math.IsNaN(r.IPC) || math.IsInf(r.IPC, 0) {
		d.fail(fmt.Errorf("IPC %v is not finite", r.IPC))
	}
	r.TotalCycles = d.uvarint()
	sv := reflect.ValueOf(&r.Stats).Elem()
	for i, k := range statsKinds {
		f := sv.Field(i)
		if k == reflect.Uint64 {
			f.SetUint(d.uvarint())
		} else if v := d.varint(); !f.OverflowInt(v) {
			f.SetInt(v)
		} else {
			d.fail(fmt.Errorf("stats field %d: %d overflows int", i, v))
		}
	}
	if d.err == nil && len(d.b) > 0 {
		d.fail(fmt.Errorf("%d trailing bytes", len(d.b)))
	}
	if d.err != nil {
		return "", "", Run{}, d.err
	}
	return key, scheme, r, nil
}

// cellDecoder reads an entry front to back; the first error sticks and
// every later read returns zero.
type cellDecoder struct {
	b   []byte
	err error
}

var errTruncated = errors.New("truncated cell entry")

func (d *cellDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *cellDecoder) uvarint() uint64 { return readVarint(d, binary.Uvarint) }
func (d *cellDecoder) varint() int64   { return readVarint(d, binary.Varint) }

// readVarint reads one varint with read, binary.Uvarint or binary.Varint.
func readVarint[T uint64 | int64](d *cellDecoder, read func([]byte) (T, int)) T {
	if d.err != nil {
		return 0
	}
	v, n := read(d.b)
	if n == 0 {
		d.fail(errTruncated)
		return 0
	}
	if n < 0 {
		d.fail(errors.New("varint overflows 64 bits"))
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *cellDecoder) fixed64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail(errTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *cellDecoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxCellString {
		d.fail(fmt.Errorf("string of %d bytes exceeds %d", n, maxCellString))
		return ""
	}
	if uint64(len(d.b)) < n {
		d.fail(errTruncated)
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// ValidateCell checks a cell result that arrived from outside this
// process — a disk entry or a farm envelope — under key and scheme name:
// key must be wantKey (unless wantKey is empty: a stream validates its
// keys against the request separately), and scheme must be a registered
// name that still resolves to the run's kind, so an entry from a binary
// whose scheme was renumbered or removed is rejected, never mislabeled.
func ValidateCell(key, wantKey, scheme string, r Run) error {
	if wantKey != "" && key != wantKey {
		return fmt.Errorf("cell key %q does not match requested %q (version skew?)", key, wantKey)
	}
	if kind, ok := core.SchemeKindByName(scheme); !ok || kind != r.Scheme {
		return fmt.Errorf("cell scheme %q does not resolve to the run's kind", scheme)
	}
	return nil
}
