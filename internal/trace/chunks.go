package trace

import (
	"context"
	"fmt"
	"io"
)

// Run-chunk sources: one sequential interface over every shape a trace is
// held in, so each simulation driver (internal/replay, internal/sweep) has
// one loop instead of one per shape. Three adapters cover the shapes:
//
//   - RunChunks: an in-memory []Run, handed out whole as a single chunk.
//   - NewBlockChunks: a BlockSource (a columnar file), one decoded block per
//     chunk into a reused buffer.
//   - SourceChunks: a per-reference Source, compacted through a Compactor.
//
// RunChunks, the block adapter and SeekChunks, the Source adapter over a
// Seeker, also implement Windows: the random access skip-mode sampling uses
// to visit only the measured windows of a trace and never read the gaps
// between them.

// Chunks is a sequential source of run chunks. Next returns the next chunk
// of the run-compacted trace, valid until the following call, and io.EOF
// once the trace is exhausted; any other error ends the read.
type Chunks interface {
	Next() ([]Run, error)
}

// Windows is the optional random-access capability of a Chunks source.
// Window moves the source's position, so a reader uses either Next or
// Window, not both.
type Windows interface {
	Chunks
	// Total returns the trace length in instructions.
	Total() int64
	// Window appends to dst[:0] the maximal sequential spans covering
	// instructions [pos, pos+n), clipped to Total, and returns the result.
	Window(pos, n int64, dst []Run) ([]Run, error)
}

// EachChunk calls fn with every chunk src yields, in order, and returns nil
// at io.EOF or the first error from src or fn. ctx, when non-nil, is polled
// before every chunk.
func EachChunk(ctx context.Context, src Chunks, fn func(runs []Run) error) error {
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		runs, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err == nil {
			err = fn(runs)
		}
		if err != nil {
			return err
		}
	}
}

// EachWindow visits the measured windows of a skip-mode time-sampling plan,
// instructions [k*period, k*period+window) for k = 0, 1, ..., calling fn
// with each window's spans in order. ctx, when non-nil, is polled once per
// window.
func EachWindow(ctx context.Context, w Windows, window, period int64, fn func(spans []Run)) error {
	total := w.Total()
	var spans []Run
	for start := int64(0); start < total; start += period {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		var err error
		if spans, err = w.Window(start, window, spans); err != nil {
			return err
		}
		fn(spans)
		// Guard against period overflow at the extreme end of int64 space.
		if start > total-period {
			break
		}
	}
	return nil
}

// RunChunks returns runs as a Chunks source whose one chunk is the caller's
// slice itself: no copy, however long the trace. Its windows are cut from
// the slice by a forward run cursor, so a skip-mode plan steps over the
// runs between windows without expanding them.
func RunChunks(runs []Run) Chunks { return &runChunks{runs: runs, total: -1} }

type runChunks struct {
	runs  []Run
	done  bool
	total int64 // -1 until Total first sums the runs
	cur   runCursor
}

func (c *runChunks) Next() ([]Run, error) {
	if c.done {
		return nil, io.EOF
	}
	c.done = true
	return c.runs, nil
}

func (c *runChunks) Total() int64 {
	if c.total < 0 {
		c.total = 0
		for _, r := range c.runs {
			c.total += r.Len
		}
	}
	return c.total
}

// Window needs no clipping: the cursor stops where the runs, and so the
// trace, end.
func (c *runChunks) Window(pos, n int64, dst []Run) ([]Run, error) {
	dst, _ = c.cur.spans(c.runs, 0, pos, n, dst[:0])
	return dst, nil
}

// runCursor walks a run slice by instruction position: run idx begins at
// instruction pos. A window at or after pos resumes from it; one before it
// restarts from the slice's first run.
type runCursor struct {
	idx int
	pos int64
}

// spans appends to dst the sequential spans covering instructions
// [at, at+n) of runs, whose first run begins at instruction base, stopping
// early where runs end, and returns dst and the instruction after the last
// one covered.
func (c *runCursor) spans(runs []Run, base, at, n int64, dst []Run) ([]Run, int64) {
	if at < c.pos {
		c.idx, c.pos = 0, base
	}
	for c.idx < len(runs) && n > 0 {
		r := runs[c.idx]
		off := at - c.pos
		if off >= r.Len {
			c.idx++
			c.pos += r.Len
			continue
		}
		take := min(r.Len-off, n)
		dst = append(dst, Run{Start: r.Start + uint64(off)*InstrBytes, Len: take, Domain: r.Domain})
		at += take
		n -= take
	}
	return dst, at
}

// BlockChunks reads a BlockSource one decoded block per chunk, into one
// reused buffer, so a columnar file far beyond RAM is read in O(block)
// memory. Its windows come from the source's SeekRef index: O(log blocks) to
// enter a window, and blocks between windows are never decoded.
type BlockChunks struct {
	bs   BlockSource
	next int // next block Next decodes
	buf  []Run

	// Window cursor: buf holds block blk (-1: none), which covers
	// instructions [blkPos, blkEnd); cur walks its runs.
	blk            int
	blkPos, blkEnd int64
	cur            runCursor
}

// NewBlockChunks returns a reader over bs from its first block.
func NewBlockChunks(bs BlockSource) *BlockChunks { return &BlockChunks{bs: bs, blk: -1} }

// Blocks returns the underlying block source, from which parallel drivers
// open one independent reader per goroutine.
func (c *BlockChunks) Blocks() BlockSource { return c.bs }

// Next implements Chunks.
func (c *BlockChunks) Next() ([]Run, error) {
	if c.next >= c.bs.NumBlocks() {
		return nil, io.EOF
	}
	var err error
	c.buf, err = c.bs.BlockRuns(c.next, c.buf)
	c.next++
	c.blk = -1
	if err != nil {
		return nil, err
	}
	return c.buf, nil
}

// Total implements Windows.
func (c *BlockChunks) Total() int64 { return c.bs.Refs() }

// Window implements Windows. Sequential windows resume from the cached run
// cursor instead of rescanning their block.
func (c *BlockChunks) Window(pos, n int64, dst []Run) ([]Run, error) {
	dst = dst[:0]
	if end := c.Total(); pos+n > end {
		n = end - pos
	}
	for n > 0 {
		if c.blk < 0 || pos < c.blkPos || pos >= c.blkEnd {
			b, before, ok := c.bs.SeekRef(pos)
			if !ok {
				return nil, fmt.Errorf("trace: instruction %d outside the block index", pos)
			}
			var err error
			if c.buf, err = c.bs.BlockRuns(b, c.buf); err != nil {
				c.blk = -1
				return nil, err
			}
			c.blk, c.blkPos, c.blkEnd = b, before, before+c.bs.BlockMeta(b).Refs
			c.cur = runCursor{pos: before}
		}
		var end int64
		dst, end = c.cur.spans(c.buf, c.blkPos, pos, n, dst)
		n, pos = n-(end-pos), end
		if n > 0 && pos < c.blkEnd {
			return nil, fmt.Errorf("trace: block %d decodes to fewer instructions than its index entry", c.blk)
		}
	}
	return dst, nil
}

// sourceChunkRuns is how many runs the Source adapter compacts per chunk.
const sourceChunkRuns = 512

// SourceChunks compacts a per-reference Source into run chunks through a
// Compactor, dropping data references as Compact does; a source that stops
// with a non-nil Err fails the read with it. Every reference is read, even
// when src could seek: SeekChunks is the adapter that uses seeking.
func SourceChunks(src Source) Chunks { return &sourceChunks{src: src} }

// SeekChunks is SourceChunks over a Seeker, adding Windows: each window
// seeks to its first instruction and generates and compacts only its own
// references.
func SeekChunks(src Seeker) Windows {
	return &seekChunks{sourceChunks: &sourceChunks{src: src}, sk: src}
}

type sourceChunks struct {
	src  Source
	c    Compactor
	done bool
}

func (s *sourceChunks) Next() ([]Run, error) {
	if s.done {
		return nil, io.EOF
	}
	for s.c.Len() < sourceChunkRuns {
		r, ok := s.src.Next()
		if !ok {
			if err := s.src.Err(); err != nil {
				return nil, err
			}
			s.done = true
			if runs := s.c.Drain(true); len(runs) > 0 {
				return runs, nil
			}
			return nil, io.EOF
		}
		s.c.Add(r)
	}
	return s.c.Drain(false), nil
}

type seekChunks struct {
	*sourceChunks
	sk Seeker
}

func (s *seekChunks) Total() int64 { return s.sk.Total() }

func (s *seekChunks) Window(pos, n int64, dst []Run) ([]Run, error) {
	total := s.sk.Total()
	if err := s.sk.SeekTo(pos); err != nil {
		return nil, err
	}
	c := Compactor{runs: dst[:0]}
	for i := pos; i < min(pos+n, total); i++ {
		r, ok := s.sk.Next()
		if !ok {
			if err := s.sk.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("trace: seekable source ended at instruction %d of %d", i, total)
		}
		c.Add(r)
	}
	return c.Drain(true), nil
}
