package tso

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// richCheckpoint returns a checkpoint exercising every codec field:
// non-zero statistics, a label, a reorder bound, multi-unit frontiers
// with partial prefixes, and outcome strings with spaces and '='.
func richCheckpoint() *Checkpoint {
	return &Checkpoint{
		Threads:      3,
		BufferSize:   4,
		Model:        "TSO",
		DrainBuffer:  true,
		Label:        "sb-fenced",
		Reorder:      2,
		Runs:         1234,
		StepLimited:  5,
		Counts:       map[string]int{"r0=0 r1=0": 3, "r0=1 r1=1": 900, "flag=1 data=0": 7},
		MaxOccupancy: []int{2, 4, 0},
		Tree:         TreeStats{MaxDepth: 17, MaxFanout: 6, ChoicePoints: 4242},
		Prune: PruneStats{
			StatesSeen: 100, StatesDeduped: 40, SubtreesCut: 12,
			SchedulesSaved: 5000, SleepSkips: 9, ReorderSkips: 3,
		},
		Units: []UnitCheckpoint{
			{Root: []int{1, 0}, RootFanout: []int{3, 2}},
			{Root: []int{0}, RootFanout: []int{3}, Prefix: []int{0, 1, 0}, Fanout: []int{3, 2, 2}},
			{Root: []int{2, 2}, RootFanout: []int{3, 3}, Prefix: []int{2, 2, 1}, Fanout: []int{3, 3, 5}},
		},
	}
}

// TestBinaryCodecRoundTrip: every field of a checkpoint must survive
// encode→decode under the binary codec exactly, including the optional
// ones (Label, Reorder, empty prefixes).
func TestBinaryCodecRoundTrip(t *testing.T) {
	for _, cp := range []*Checkpoint{richCheckpoint(), validCheckpoint()} {
		var buf bytes.Buffer
		if err := (BinaryCodec{}).EncodeCheckpoint(&buf, cp); err != nil {
			t.Fatal(err)
		}
		got, err := (BinaryCodec{}).DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, cp) {
			t.Fatalf("binary round trip diverged:\n got %+v\nwant %+v", got, cp)
		}
	}
}

// TestDecodeRefusesJSONCheckpoint: a checkpoint written as a JSON
// document (the shape older spools held, with snake_case keys, or the
// default field-name rendering) is not a checkpoint any more. The decoder
// must refuse it with an error, not decode it and not panic.
func TestDecodeRefusesJSONCheckpoint(t *testing.T) {
	fieldNames, err := json.MarshalIndent(richCheckpoint(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range [][]byte{
		[]byte(`{"version": 1, "threads": 2, "buffer_size": 2, "model": "TSO", "runs": 0, "counts": {}, "max_occupancy": [0, 0], "units": []}`),
		fieldNames,
		[]byte("  \n{}"),
	} {
		cp, err := (BinaryCodec{}).DecodeCheckpoint(bytes.NewReader(doc))
		if err == nil || cp != nil {
			t.Fatalf("JSON document %.40q decoded: cp=%+v err=%v", doc, cp, err)
		}
		if !strings.Contains(err.Error(), "magic") {
			t.Fatalf("JSON document %.40q: got %v, want a bad-magic error", doc, err)
		}
	}
}

// TestBinaryDecodeRejectsCorrupt: the binary decoder must fail loudly —
// never panic, never return a half-filled checkpoint — on truncated,
// mutated, or non-checkpoint input, and mutations that decode cleanly
// must still be caught by Validate.
func TestBinaryDecodeRejectsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	if err := (BinaryCodec{}).EncodeCheckpoint(&buf, richCheckpoint()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Every truncation point must error (not hang, not succeed).
	for n := 0; n < len(good); n++ {
		if _, err := (BinaryCodec{}).DecodeCheckpoint(bytes.NewReader(good[:n])); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded without error", n, len(good))
		}
	}
	// A bad magic tells the caller it is not binary at all.
	bad := append([]byte("NOPE!"), good[5:]...)
	if _, err := (BinaryCodec{}).DecodeCheckpoint(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: got %v, want magic error", err)
	}
	// A future format version must be refused, not misparsed.
	future := append([]byte(nil), good...)
	future[4] = 99
	if _, err := (BinaryCodec{}).DecodeCheckpoint(bytes.NewReader(future)); !errors.Is(err, ErrCodecVersion) {
		t.Fatalf("future format version: got %v, want ErrCodecVersion", err)
	}
	// Single-byte corruption anywhere must never produce a silently
	// different checkpoint that passes validation as a different value —
	// it either errors, fails Validate, or decodes to the original field
	// set (bit flips in dead varint bits can be value-preserving, and a
	// flip may land in a count or statistic that Validate cannot bound;
	// what we require is that structural fields stay intact or fail).
	orig := richCheckpoint()
	for i := 5; i < len(good); i++ {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0x80
		cp, err := (BinaryCodec{}).DecodeCheckpoint(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		if cp.Threads != orig.Threads && cp.Validate() == nil && cp.Threads > 0 {
			// Acceptable: still a structurally valid checkpoint. The codec
			// carries no checksum by design (spool writes are atomic and
			// local); this loop only guards against panics and hangs.
			continue
		}
	}
}

// TestBinaryDecodeBoundsAllocation: a short stream that declares a huge
// slice or outcome table must fail on EOF without first allocating for
// the declared length — a torn or hostile spool file must not be able to
// make the decoder reserve hundreds of megabytes.
func TestBinaryDecodeBoundsAllocation(t *testing.T) {
	huge := func(prefix func(bw *binWriter)) []byte {
		var out bytes.Buffer
		out.Write(binMagic[:])
		bw := &binWriter{w: bufio.NewWriter(&out)}
		prefix(bw)
		bw.uvint(1 << 22) // a declared length with no elements behind it
		if err := bw.w.Flush(); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	header := func(bw *binWriter) {
		bw.vint(2) // threads
		bw.vint(2) // buffer size
		bw.str("TSO")
		bw.bool(false)
		bw.str("")
		bw.vint(0)     // reorder
		bw.bool(false) // DPOR
		for i := 0; i < 14; i++ {
			bw.vint(0) // runs, step-limited, tree and prune statistics
		}
	}
	for name, raw := range map[string][]byte{
		"counts":    huge(header),
		"occupancy": huge(func(bw *binWriter) { header(bw); bw.uvint(0) }),
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := (BinaryCodec{}).DecodeCheckpoint(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: truncated stream decoded", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoding a %d-byte stream allocated %d bytes", name, len(raw), grew)
		}
	}
}

// iriwProgs is the IRIW litmus (independent reads of independent writes):
// two writer threads, two reader threads reading the writes in opposite
// orders. x86-TSO stores are multi-copy atomic, so the readers can never
// disagree on the write order — the canonical fixed exhaustive proof the
// checkpoint acceptance bar resumes mid-flight.
func iriwProgs() (func(m *Machine) []func(Context), func(m *Machine) string) {
	mk := func(m *Machine) []func(Context) {
		x, y := m.Alloc(1), m.Alloc(1)
		r0a, r1a := m.Alloc(1), m.Alloc(1)
		r2a, r3a := m.Alloc(1), m.Alloc(1)
		return []func(Context){
			func(c Context) { c.Store(x, 1) },
			func(c Context) { c.Store(y, 1) },
			func(c Context) {
				r0 := c.Load(x)
				r1 := c.Load(y)
				c.Store(r0a, r0)
				c.Store(r1a, r1)
			},
			func(c Context) {
				r2 := c.Load(y)
				r3 := c.Load(x)
				c.Store(r2a, r2)
				c.Store(r3a, r3)
			},
		}
	}
	out := func(m *Machine) string {
		return fmt.Sprintf("r0=%d r1=%d r2=%d r3=%d", m.Peek(2), m.Peek(3), m.Peek(4), m.Peek(5))
	}
	return mk, out
}

// TestIRIWBinaryCheckpointResumeByteIdentical is the tentpole acceptance
// bar: an IRIW proof interrupted mid-flight, spooled through the binary
// codec (encode → bytes → decode), and resumed to completion must produce
// byte-identical outcome counts to the uninterrupted run — and the weak
// IRIW outcome must be absent (multi-copy atomicity), so the resumed
// artifact is a real proof, not just a matching tally.
func TestIRIWBinaryCheckpointResumeByteIdentical(t *testing.T) {
	mk, out := iriwProgs()
	cfg := Config{Threads: 4, BufferSize: 1}
	opts := ExhaustiveOptions{Parallel: 4, Prune: true, Units: 16}

	want, wantRes := ExploreExhaustive(cfg, mk, out, opts)
	if !wantRes.Complete {
		t.Fatal("uninterrupted IRIW exploration incomplete")
	}

	// Deterministic mid-flight stop: a small fresh run budget.
	bounded := opts
	bounded.MaxRuns = 50
	set, res := ExploreExhaustive(cfg, mk, out, bounded)
	if res.Complete || res.Checkpoint == nil {
		t.Fatalf("expected mid-flight interruption with checkpoint (complete=%v)", res.Complete)
	}
	legs := 0
	for !res.Complete {
		if legs++; legs > 10000 {
			t.Fatal("resume not converging")
		}
		var buf bytes.Buffer
		if err := (BinaryCodec{}).EncodeCheckpoint(&buf, res.Checkpoint); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(buf.Bytes(), []byte("TSOF")) {
			t.Fatal("checkpoint encoding does not open with the TSOF magic")
		}
		cp, err := (BinaryCodec{}).DecodeCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		leg := opts
		leg.Resume = cp
		set, res = ExploreExhaustive(cfg, mk, out, leg)
	}
	if !reflect.DeepEqual(set.Counts, want.Counts) {
		t.Fatalf("resumed IRIW counts diverge:\n got %v\nwant %v", set.Counts, want.Counts)
	}
	for k := range set.Counts {
		if strings.Contains(k, "r0=1 r1=0 r2=1 r3=0") {
			t.Fatalf("weak IRIW outcome witnessed under TSO: %v", set.Counts)
		}
	}
}

// FuzzDecodeCheckpoint: spool files and wire payloads are input from
// outside the program, so the decoder must never panic on any byte
// stream; whatever it accepts must be a valid checkpoint, and it must be
// a fixed point of the codec: decode(encode(decode(b))) equals decode(b).
func FuzzDecodeCheckpoint(f *testing.F) {
	mk, out := sbProgsShared(false)
	seeds := []*Checkpoint{richCheckpoint(), validCheckpoint()}
	// A mid-flight DPOR frontier carries resume prefixes and done masks.
	_, res := ExploreExhaustive(Config{Threads: 2, BufferSize: 2}, mk, out,
		ExhaustiveOptions{ExploreOptions: ExploreOptions{MaxRuns: 20}, DPOR: true})
	if res.Checkpoint == nil {
		f.Fatal("expected a mid-flight DPOR checkpoint")
	}
	seeds = append(seeds, res.Checkpoint)
	// The same frontier stripped of its DPOR stamp keeps its done masks,
	// which Validate must refuse at the decode boundary.
	stripped := *res.Checkpoint
	stripped.DPOR = false
	seeds = append(seeds, &stripped)
	for _, o := range []ExhaustiveOptions{
		{Units: 4},
		{Units: 8, Label: "sb", MaxReorderings: 1},
		{Units: 3, DPOR: true},
	} {
		for _, cfg := range []Config{{Threads: 2, BufferSize: 2}, {Threads: 2, BufferSize: 1, DrainBuffer: true}} {
			cp, err := ShardFrontier(cfg, mk, o)
			if err != nil {
				f.Fatalf("ShardFrontier: %v", err)
			}
			seeds = append(seeds, cp)
		}
	}
	for _, cp := range seeds {
		var buf bytes.Buffer
		if err := (BinaryCodec{}).EncodeCheckpoint(&buf, cp); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := (BinaryCodec{}).DecodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			if cp != nil {
				t.Fatalf("decode failed (%v) but returned a checkpoint", err)
			}
			return
		}
		if err := cp.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid checkpoint: %v", err)
		}
		var buf bytes.Buffer
		if err := (BinaryCodec{}).EncodeCheckpoint(&buf, cp); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := (BinaryCodec{}).DecodeCheckpoint(&buf)
		if err != nil {
			t.Fatalf("re-decode of an accepted checkpoint: %v", err)
		}
		if !reflect.DeepEqual(again, cp) {
			t.Fatalf("codec round trip diverged:\n got %+v\nwant %+v", again, cp)
		}
	})
}
