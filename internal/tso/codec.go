package tso

// This file is the checkpoint wire layer: the one binary format every
// checkpoint flows through (the tsoserve spool, the tsoexplore
// -checkpoint file, the shard wire). A frontier unit is mostly small
// integers (choice indices and fanouts), so varint packing keeps a spool
// small enough to survive billion-schedule campaigns. The TSOF header's
// version byte is the only format version; the decoder speaks exactly the
// current one and refuses every other with ErrCodecVersion.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
)

// binMagic opens every checkpoint: four tag bytes plus the wire format
// version byte, the checkpoint's only version number. The decoder refuses
// any stream whose version byte differs from binVersion.
var binMagic = [5]byte{'T', 'S', 'O', 'F', binVersion}

const binVersion = 4

// ErrCodecVersion is the sentinel DecodeCheckpoint wraps when a
// checkpoint carries the TSOF tag but a wire version this build does
// not speak — the codec axis of resume refusal (compare with
// errors.Is).
var ErrCodecVersion = errors.New("tso: unsupported binary checkpoint format version")

// Decoder sanity caps: lengths beyond these are corruption, not data
// (the deepest real frontier prefixes are a few thousand choices, and
// outcome strings are short litmus verdicts). They bound the allocation
// a hostile or torn spool file can cause. Below the caps, slices and
// the outcome table grow as their elements arrive rather than being
// sized up front from a declared length, so a short stream that claims
// a huge one fails on EOF without first allocating for it.
const (
	binMaxString = 1 << 20
	binMaxSlice  = 1 << 26
	binPrealloc  = 1 << 10
)

// BinaryCodec is the checkpoint wire format: the magic header followed by
// every checkpoint field in a fixed order, integers as signed varints
// (signed so even structurally invalid values round-trip to Validate
// instead of corrupting silently), strings length-prefixed, and the
// outcome table written as one sorted run of (outcome, count, witness
// choices) rows so equal checkpoints encode byte-identically. Both
// directions stream: encode never builds the whole wire image in memory,
// decode never slurps the reader.
type BinaryCodec struct{}

// binWriter is the encoder's streaming state: a buffered writer, a
// varint scratch, and a sticky first error so field writes chain without
// per-call error plumbing.
type binWriter struct {
	w   *bufio.Writer
	tmp [binary.MaxVarintLen64]byte
	err error
}

func (b *binWriter) vint(v int64) {
	if b.err != nil {
		return
	}
	n := binary.PutVarint(b.tmp[:], v)
	_, b.err = b.w.Write(b.tmp[:n])
}

func (b *binWriter) uvint(v uint64) {
	if b.err != nil {
		return
	}
	n := binary.PutUvarint(b.tmp[:], v)
	_, b.err = b.w.Write(b.tmp[:n])
}

func (b *binWriter) str(s string) {
	b.uvint(uint64(len(s)))
	if b.err != nil {
		return
	}
	_, b.err = b.w.WriteString(s)
}

func (b *binWriter) bool(v bool) {
	var x int64
	if v {
		x = 1
	}
	b.vint(x)
}

func (b *binWriter) ints(xs []int) {
	b.uvint(uint64(len(xs)))
	for _, x := range xs {
		b.vint(int64(x))
	}
}

func (b *binWriter) uints64(xs []uint64) {
	b.uvint(uint64(len(xs)))
	for _, x := range xs {
		b.uvint(x)
	}
}

// EncodeCheckpoint writes cp in the binary wire format.
func (BinaryCodec) EncodeCheckpoint(w io.Writer, cp *Checkpoint) error {
	bw := &binWriter{w: bufio.NewWriter(w)}
	if _, err := bw.w.Write(binMagic[:]); err != nil {
		return fmt.Errorf("tso: encoding checkpoint: %w", err)
	}
	bw.vint(int64(cp.Threads))
	bw.vint(int64(cp.BufferSize))
	bw.str(cp.Model)
	bw.bool(cp.DrainBuffer)
	bw.str(cp.Label)
	bw.vint(int64(cp.Reorder))
	bw.bool(cp.DPOR)
	bw.vint(int64(cp.Runs))
	bw.vint(int64(cp.StepLimited))
	bw.vint(int64(cp.Tree.MaxDepth))
	bw.vint(int64(cp.Tree.MaxFanout))
	bw.vint(cp.Tree.ChoicePoints)
	bw.vint(cp.Prune.StatesSeen)
	bw.vint(cp.Prune.StatesDeduped)
	bw.vint(cp.Prune.SubtreesCut)
	bw.vint(cp.Prune.SchedulesSaved)
	bw.vint(cp.Prune.SleepSkips)
	bw.vint(cp.Prune.ReorderSkips)
	bw.vint(cp.Prune.DPORRaces)
	bw.vint(cp.Prune.DPORBacktracks)
	bw.vint(cp.Prune.DPORSleepSkips)
	// The outcome table: sorted keys make the encoding canonical, so two
	// equal checkpoints are byte-equal on the wire (spool diffing, test
	// golden files).
	keys := make([]string, 0, len(cp.Counts))
	for k := range cp.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bw.uvint(uint64(len(keys)))
	for _, k := range keys {
		bw.str(k)
		bw.vint(int64(cp.Counts[k]))
		bw.ints(cp.Witnesses[k])
	}
	bw.ints(cp.MaxOccupancy)
	bw.uvint(uint64(len(cp.Units)))
	for i := range cp.Units {
		u := &cp.Units[i]
		bw.ints(u.Root)
		bw.ints(u.RootFanout)
		bw.ints(u.Prefix)
		bw.ints(u.Fanout)
		bw.uints64(u.Done)
	}
	if bw.err == nil {
		bw.err = bw.w.Flush()
	}
	if bw.err != nil {
		return fmt.Errorf("tso: encoding checkpoint: %w", bw.err)
	}
	return nil
}

// binReader mirrors binWriter for decoding, with the same sticky-error
// chaining plus the sanity caps on declared lengths.
type binReader struct {
	r   *bufio.Reader
	err error
}

func (b *binReader) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

func (b *binReader) vint() int64 {
	if b.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(b.r)
	b.fail(err)
	return v
}

func (b *binReader) uvint() uint64 {
	if b.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(b.r)
	b.fail(err)
	return v
}

func (b *binReader) length(max uint64) int {
	n := b.uvint()
	if b.err == nil && n > max {
		b.fail(fmt.Errorf("implausible length %d", n))
	}
	if b.err != nil {
		return 0
	}
	return int(n)
}

func (b *binReader) str() string {
	n := b.length(binMaxString)
	if b.err != nil || n == 0 {
		return ""
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(b.r, buf); err != nil {
		b.fail(err)
		return ""
	}
	return string(buf)
}

func (b *binReader) bool() bool { return b.vint() != 0 }

func (b *binReader) ints() []int {
	n := b.length(binMaxSlice)
	if b.err != nil || n == 0 {
		return nil
	}
	xs := make([]int, 0, min(n, binPrealloc))
	for i := 0; i < n && b.err == nil; i++ {
		xs = append(xs, int(b.vint()))
	}
	if b.err != nil {
		return nil
	}
	return xs
}

func (b *binReader) uints64() []uint64 {
	n := b.length(binMaxSlice)
	if b.err != nil || n == 0 {
		return nil
	}
	xs := make([]uint64, 0, min(n, binPrealloc))
	for i := 0; i < n && b.err == nil; i++ {
		xs = append(xs, b.uvint())
	}
	if b.err != nil {
		return nil
	}
	return xs
}

// DecodeCheckpoint reads one checkpoint and validates it: checkpoints
// arrive from disk spools and the verification service's wire, so a
// malformed frontier fails loudly here rather than corrupting a later
// merge.
func (BinaryCodec) DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var magic [len(binMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("tso: decoding checkpoint: %w", err)
	}
	if [4]byte(magic[:4]) != [4]byte(binMagic[:4]) {
		return nil, fmt.Errorf("tso: not a binary checkpoint (bad magic)")
	}
	ver := magic[4]
	if ver != binVersion {
		return nil, fmt.Errorf("%w %d", ErrCodecVersion, ver)
	}
	b := &binReader{r: br}
	cp := &Checkpoint{}
	cp.Threads = int(b.vint())
	cp.BufferSize = int(b.vint())
	cp.Model = b.str()
	cp.DrainBuffer = b.bool()
	cp.Label = b.str()
	cp.Reorder = int(b.vint())
	cp.DPOR = b.bool()
	cp.Runs = int(b.vint())
	cp.StepLimited = int(b.vint())
	cp.Tree.MaxDepth = int(b.vint())
	cp.Tree.MaxFanout = int(b.vint())
	cp.Tree.ChoicePoints = b.vint()
	cp.Prune.StatesSeen = b.vint()
	cp.Prune.StatesDeduped = b.vint()
	cp.Prune.SubtreesCut = b.vint()
	cp.Prune.SchedulesSaved = b.vint()
	cp.Prune.SleepSkips = b.vint()
	cp.Prune.ReorderSkips = b.vint()
	cp.Prune.DPORRaces = b.vint()
	cp.Prune.DPORBacktracks = b.vint()
	cp.Prune.DPORSleepSkips = b.vint()
	nCounts := b.length(binMaxSlice)
	cp.Counts = make(map[string]int, min(nCounts, binPrealloc))
	cp.Witnesses = make(map[string][]int, min(nCounts, binPrealloc))
	for i := 0; i < nCounts && b.err == nil; i++ {
		k := b.str()
		cp.Counts[k] = int(b.vint())
		cp.Witnesses[k] = b.ints()
	}
	cp.MaxOccupancy = b.ints()
	if cp.MaxOccupancy == nil {
		cp.MaxOccupancy = []int{}
	}
	nUnits := b.length(binMaxSlice)
	for i := 0; i < nUnits && b.err == nil; i++ {
		u := UnitCheckpoint{
			Root:       b.ints(),
			RootFanout: b.ints(),
			Prefix:     b.ints(),
			Fanout:     b.ints(),
			Done:       b.uints64(),
		}
		cp.Units = append(cp.Units, u)
	}
	if b.err != nil {
		return nil, fmt.Errorf("tso: decoding checkpoint: %w", b.err)
	}
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	return cp, nil
}
