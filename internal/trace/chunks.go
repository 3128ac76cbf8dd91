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
// The block adapter and SeekChunks, the Source adapter over a Seeker, also
// implement Windows: the random access skip-mode sampling uses to visit only
// the measured windows of a trace and never read the gaps between them.

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
// slice itself: no copy, however long the trace.
func RunChunks(runs []Run) Chunks { return &runChunks{runs: runs} }

type runChunks struct {
	runs []Run
	done bool
}

func (c *runChunks) Next() ([]Run, error) {
	if c.done {
		return nil, io.EOF
	}
	c.done = true
	return c.runs, nil
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
	// instructions [blkPos, blkEnd); run runIdx of it starts at runPos.
	blk            int
	blkPos, blkEnd int64
	runIdx         int
	runPos         int64
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
			c.runIdx, c.runPos = 0, before
		}
		if pos < c.runPos {
			// A backward seek within the block: restart its run cursor.
			c.runIdx, c.runPos = 0, c.blkPos
		}
		for c.runIdx < len(c.buf) && n > 0 {
			r := c.buf[c.runIdx]
			off := pos - c.runPos
			if off >= r.Len {
				c.runIdx++
				c.runPos += r.Len
				continue
			}
			take := min(r.Len-off, n)
			dst = append(dst, Run{Start: r.Start + uint64(off)*InstrBytes, Len: take, Domain: r.Domain})
			pos += take
			n -= take
		}
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
