// Durable checkpoint file formats. A durable router (shard.Open)
// persists two kinds of files next to its edge-log directory:
//
//	slot-<i>.ckpt  one local slot's engine at a checkpoint round: a
//	               small header (round seq, flush barrier, ranks)
//	               followed by a persist.SaveMulti image
//	router.meta    the router's own registry at a round: one record
//	               per registration, then the ids of the retired slots
//	               (a trailing list; a file without it retires none)
//
// Both are written to a temp file, fsynced and renamed, so a crash
// mid-write leaves the previous checkpoint intact; recovery (Open)
// tolerates slot files one round newer than the meta — exactly the
// state a crash between the slot writes and the meta commit leaves.
package shard

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"streamgraph/internal/core"
	"streamgraph/internal/persist"
)

const (
	slotMagic = "SGSLOT1\n"
	metaMagic = "SGMETA1\n"
)

// metaReg is one registration record in router.meta: everything Open
// needs to rebuild the router-side bookkeeping (owner, gate, rank) and
// to synthesize a remote slot's register event.
type metaReg struct {
	name    string
	slot    int
	rank    int
	fpTypes []string
	fpExact bool
	query   string // textual form, reparsed on recovery
	cfg     core.Config
}

// routerMeta is the decoded router.meta.
type routerMeta struct {
	ckptSeq uint64
	regs    []metaReg
	retired []int // slot ids RemoveSlot or a failover took out
}

// atomicFile writes through a temp file and renames into place on
// Close(nil); the data is fsynced before the rename so the rename
// never points at a half-written file.
func writeFileAtomic(path string, write func(w *bufio.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// enc/dec helpers: uvarint-based, mirroring internal/persist's style.

func putUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	_, err := w.Write(buf[:binary.PutUvarint(buf[:], v)])
	return err
}

func putVarint(w *bufio.Writer, v int64) error {
	var buf [binary.MaxVarintLen64]byte
	_, err := w.Write(buf[:binary.PutVarint(buf[:], v)])
	return err
}

func putString(w *bufio.Writer, s string) error {
	if err := putUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func putBool(w *bufio.Writer, v bool) error {
	var b uint64
	if v {
		b = 1
	}
	return putUvarint(w, b)
}

func putStrings(w *bufio.Writer, ss []string) error {
	if err := putUvarint(w, uint64(len(ss))); err != nil {
		return err
	}
	for _, s := range ss {
		if err := putString(w, s); err != nil {
			return err
		}
	}
	return nil
}

type metaDec struct {
	r   *bufio.Reader
	err error
}

func (d *metaDec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("shard: corrupt checkpoint file: %s", what)
	}
}

func (d *metaDec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.err = err
	}
	return v
}

func (d *metaDec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(d.r)
	if err != nil {
		d.err = err
	}
	return v
}

func (d *metaDec) bool_() bool { return d.uvarint() != 0 }

// count guards list lengths against corrupt headers so a flipped byte
// cannot drive a multi-gigabyte allocation.
func (d *metaDec) count(what string, limit uint64) int {
	n := d.uvarint()
	if d.err == nil && n > limit {
		d.fail(what + " count")
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

func (d *metaDec) string_() string {
	n := d.count("string", 1<<24)
	if d.err != nil {
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.err = err
		return ""
	}
	return string(b)
}

func (d *metaDec) strings() []string {
	n := d.count("strings", 1<<20)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, d.string_())
	}
	return out
}

func (d *metaDec) magic(want string) {
	if d.err != nil {
		return
	}
	b := make([]byte, len(want))
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.err = err
		return
	}
	if string(b) != want {
		d.fail("magic")
	}
}

// writeMetaFile persists router.meta for one round.
func writeMetaFile(path string, m routerMeta) error {
	return writeFileAtomic(path, func(w *bufio.Writer) error {
		if _, err := w.WriteString(metaMagic); err != nil {
			return err
		}
		if err := putUvarint(w, m.ckptSeq); err != nil {
			return err
		}
		// Where older routers saved a full-stream collector; statistics
		// now come from the window, which the log recovers.
		if err := putBool(w, false); err != nil {
			return err
		}
		if err := putUvarint(w, uint64(len(m.regs))); err != nil {
			return err
		}
		for _, reg := range m.regs {
			if err := writeMetaReg(w, reg); err != nil {
				return err
			}
		}
		if err := putUvarint(w, uint64(len(m.retired))); err != nil {
			return err
		}
		for _, id := range m.retired {
			if err := putUvarint(w, uint64(id)); err != nil {
				return err
			}
		}
		return nil
	})
}

func writeMetaReg(w *bufio.Writer, reg metaReg) error {
	if err := putString(w, reg.name); err != nil {
		return err
	}
	if err := putUvarint(w, uint64(reg.slot)); err != nil {
		return err
	}
	if err := putUvarint(w, uint64(reg.rank)); err != nil {
		return err
	}
	if err := putBool(w, reg.fpExact); err != nil {
		return err
	}
	if err := putStrings(w, reg.fpTypes); err != nil {
		return err
	}
	if err := putString(w, reg.query); err != nil {
		return err
	}
	cfg := reg.cfg
	if err := putUvarint(w, uint64(cfg.Strategy)); err != nil {
		return err
	}
	if err := putUvarint(w, uint64(cfg.MaxMatchesPerSearch)); err != nil {
		return err
	}
	if err := putVarint(w, cfg.MaxWorkPerEdge); err != nil {
		return err
	}
	if err := putVarint(w, cfg.MaxStepsPerSearch); err != nil {
		return err
	}
	// Where older routers saved a search-pool size.
	if err := putUvarint(w, 0); err != nil {
		return err
	}
	if err := putBool(w, cfg.Leaves != nil); err != nil {
		return err
	}
	if cfg.Leaves == nil {
		return nil
	}
	if err := putUvarint(w, uint64(len(cfg.Leaves))); err != nil {
		return err
	}
	for _, leaf := range cfg.Leaves {
		if err := putUvarint(w, uint64(len(leaf))); err != nil {
			return err
		}
		for _, e := range leaf {
			if err := putUvarint(w, uint64(e)); err != nil {
				return err
			}
		}
	}
	return nil
}

// readMetaFile loads router.meta; (nil, nil) when the file does not
// exist (a data dir that never completed a round).
func readMetaFile(path string) (*routerMeta, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d := &metaDec{r: bufio.NewReader(f)}
	d.magic(metaMagic)
	m := &routerMeta{ckptSeq: d.uvarint()}
	if d.bool_() {
		skipCollectorState(d)
	}
	n := d.count("registrations", 1<<20)
	for i := 0; i < n && d.err == nil; i++ {
		m.regs = append(m.regs, readMetaReg(d))
	}
	if _, err := d.r.Peek(1); d.err == nil && err == nil {
		// Written since slot tombstones were persisted.
		n := d.count("retired slots", 1<<20)
		for i := 0; i < n && d.err == nil; i++ {
			m.retired = append(m.retired, int(d.uvarint()))
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("shard: %s: %w", filepath.Base(path), d.err)
	}
	return m, nil
}

func readMetaReg(d *metaDec) metaReg {
	reg := metaReg{
		name: d.string_(),
		slot: int(d.uvarint()),
		rank: int(d.uvarint()),
	}
	reg.fpExact = d.bool_()
	reg.fpTypes = d.strings()
	reg.query = d.string_()
	reg.cfg.Strategy = core.Strategy(d.uvarint())
	reg.cfg.MaxMatchesPerSearch = int(d.uvarint())
	reg.cfg.MaxWorkPerEdge = d.varint()
	reg.cfg.MaxStepsPerSearch = d.varint()
	d.uvarint() // the search-pool size of older files
	if d.bool_() {
		n := d.count("leaves", 1<<16)
		reg.cfg.Leaves = make([][]int, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			m := d.count("leaf edges", 1<<16)
			leaf := make([]int, 0, m)
			for j := 0; j < m && d.err == nil; j++ {
				leaf = append(leaf, int(d.uvarint()))
			}
			reg.cfg.Leaves = append(reg.cfg.Leaves, leaf)
		}
	}
	return reg
}

// skipCollectorState reads past the collector block of a router.meta
// written before statistics were computed from the window: totals, the
// 1-edge and 2-edge-path histograms and the per-vertex counters.
func skipCollectorState(d *metaDec) {
	d.varint()
	d.varint()
	for i, n := 0, d.count("edge histogram", 1<<24); i < n && d.err == nil; i++ {
		d.string_()
		d.varint()
	}
	for i, n := 0, d.count("path histogram", 1<<24); i < n && d.err == nil; i++ {
		d.string_()
		d.uvarint()
		d.string_()
		d.uvarint()
		d.varint()
	}
	for i, n := 0, d.count("vertex counters", 1<<24); i < n && d.err == nil; i++ {
		d.string_()
		for j, m := 0, d.count("incident counters", 1<<24); j < m && d.err == nil; j++ {
			d.string_()
			d.uvarint()
			d.varint()
		}
	}
}

// slotCkpt is the decoded header of one slot-<i>.ckpt; the engine
// image follows it in the file.
type slotCkpt struct {
	ckptSeq uint64
	lastEnd uint64
	ranks   map[string]int
	eng     *core.MultiEngine
}

func slotPath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("slot-%d.ckpt", id))
}

// writeSlotFile persists one local slot's checkpoint: header then the
// engine image, through the same atomic temp-rename discipline.
func writeSlotFile(path string, seq, lastEnd uint64, ranks map[string]int, save func(io.Writer) error) error {
	return writeFileAtomic(path, func(w *bufio.Writer) error {
		if _, err := w.WriteString(slotMagic); err != nil {
			return err
		}
		if err := putUvarint(w, seq); err != nil {
			return err
		}
		if err := putUvarint(w, lastEnd); err != nil {
			return err
		}
		names := make([]string, 0, len(ranks))
		for name := range ranks {
			names = append(names, name)
		}
		sort.Strings(names)
		if err := putUvarint(w, uint64(len(names))); err != nil {
			return err
		}
		for _, name := range names {
			if err := putString(w, name); err != nil {
				return err
			}
			if err := putUvarint(w, uint64(ranks[name])); err != nil {
				return err
			}
		}
		return save(w)
	})
}

// readSlotFile loads one slot checkpoint; (nil, nil) when absent.
func readSlotFile(path string) (*slotCkpt, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	d := &metaDec{r: br}
	d.magic(slotMagic)
	s := &slotCkpt{ckptSeq: d.uvarint(), lastEnd: d.uvarint()}
	n := d.count("slot ranks", 1<<20)
	s.ranks = make(map[string]int, n)
	for i := 0; i < n && d.err == nil; i++ {
		name := d.string_()
		s.ranks[name] = int(d.uvarint())
	}
	if d.err != nil {
		return nil, fmt.Errorf("shard: %s: %w", filepath.Base(path), d.err)
	}
	eng, err := persist.LoadMulti(br)
	if err != nil {
		return nil, fmt.Errorf("shard: %s: %w", filepath.Base(path), err)
	}
	s.eng = eng
	return s, nil
}
