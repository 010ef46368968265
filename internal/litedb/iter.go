package litedb

import (
	"errors"
	"sync/atomic"
)

// Streaming result cursor (the "ted" shape from the related-work repos):
// rows flow over a bounded channel from a producer goroutine walking the
// join loop, so large scans never materialise the whole result set. The
// fan-out merge in the tsql shard service consumes per-shard streams the
// same way.

// iterChanCap bounds the rows buffered between producer and consumer; it
// is the streaming memory ceiling a scan of any size is held to.
const iterChanCap = 64

// errIterStop aborts the producer scan early (LIMIT satisfied or Close).
var errIterStop = errors.New("litedb: row iterator stopped")

type iterMsg struct {
	row []Value
	err error
}

// RowIter is a streaming cursor over one SELECT's rows. The owning DB
// handle must not run another statement until the iterator is exhausted
// (Next returned false) or closed. Not safe for concurrent use.
type RowIter struct {
	cols    []string
	ch      chan iterMsg
	stop    chan struct{}
	stopped bool
	cur     []Value
	err     error

	// buffered serves statements that inherently materialise
	// (aggregation, DISTINCT, ORDER BY, PRAGMA).
	buffered *Rows

	pending    int64 // rows in flight producer->consumer
	maxPending int64
}

// QueryIter runs a single SELECT (or PRAGMA) and returns a streaming
// cursor over its rows. Plain selects — including joins, WHERE and
// LIMIT/OFFSET — stream with bounded buffering; aggregation, GROUP BY,
// DISTINCT and ORDER BY fall back to the materialising executor behind
// the same interface.
func (db *DB) QueryIter(sql string, args ...Value) (*RowIter, error) {
	stmts, err := db.parse(sql)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, errEval("QueryIter expects exactly one statement")
	}
	st, ok := stmts[0].(*SelectStmt)
	if !ok {
		rows, _, err := db.run(stmts[0], args)
		if err != nil {
			return nil, err
		}
		if rows == nil {
			rows = &Rows{}
		}
		return &RowIter{cols: rows.Cols, buffered: rows}, nil
	}
	return db.queryIterSelect(st, args)
}

func (db *DB) queryIterSelect(st *SelectStmt, args []Value) (*RowIter, error) {
	pl, err := db.prepareSelect(st)
	if err != nil {
		return nil, err
	}
	if len(pl.accs) > 0 || len(st.GroupBy) > 0 || st.Having != nil ||
		st.Distinct || len(pl.orderEx) > 0 {
		rows, err := db.execSelect(st, args)
		if err != nil {
			return nil, err
		}
		return &RowIter{cols: rows.Cols, buffered: rows}, nil
	}

	ctx := &evalCtx{
		rows:   make([][]Value, len(pl.schemas)),
		rowids: make([]int64, len(pl.schemas)),
		args:   args,
		rng:    db.rng,
	}
	// LIMIT/OFFSET are row-independent; evaluate before the scan.
	limit, offset := -1, 0
	if st.Limit != nil {
		lv, err := eval(st.Limit, ctx)
		if err != nil {
			return nil, err
		}
		limit = int(lv.Int())
	}
	if st.Offset != nil {
		ov, err := eval(st.Offset, ctx)
		if err != nil {
			return nil, err
		}
		if offset = int(ov.Int()); offset < 0 {
			offset = 0
		}
	}

	it := &RowIter{
		cols: pl.resNames,
		ch:   make(chan iterMsg, iterChanCap),
		stop: make(chan struct{}),
	}
	sp := db.prof.Start("litedb.exec")
	go func() {
		defer close(it.ch)
		defer sp.Stop()
		skip, left := offset, limit
		emit := func() error {
			if left == 0 {
				return errIterStop
			}
			proj := make([]Value, len(pl.resExprs))
			for i, e := range pl.resExprs {
				v, err := eval(e, ctx)
				if err != nil {
					return err
				}
				proj[i] = v
			}
			if skip > 0 {
				skip--
				return nil
			}
			if err := it.send(iterMsg{row: proj}); err != nil {
				return err
			}
			if left > 0 {
				if left--; left == 0 {
					return errIterStop
				}
			}
			return nil
		}
		var err error
		if len(pl.schemas) == 0 {
			// SELECT without FROM: one projected row (WHERE is ignored,
			// matching the materialising executor).
			err = emit()
		} else {
			err = db.joinLoop(pl, ctx, 0, emit)
		}
		if err != nil && err != errIterStop {
			_ = it.send(iterMsg{err: err})
		}
	}()
	return it, nil
}

// send hands one message to the consumer, giving up when the iterator is
// closed early.
func (it *RowIter) send(m iterMsg) error {
	if m.err == nil {
		n := atomic.AddInt64(&it.pending, 1)
		for {
			max := atomic.LoadInt64(&it.maxPending)
			if n <= max || atomic.CompareAndSwapInt64(&it.maxPending, max, n) {
				break
			}
		}
	}
	select {
	case it.ch <- m:
		return nil
	case <-it.stop:
		return errIterStop
	}
}

// Cols returns the result column names.
func (it *RowIter) Cols() []string { return it.cols }

// Next advances to the next row, reporting availability. After a false
// return, check Err.
func (it *RowIter) Next() bool {
	if it.buffered != nil {
		if !it.buffered.Next() {
			return false
		}
		it.cur = it.buffered.Row()
		return true
	}
	m, ok := <-it.ch
	if !ok {
		return false
	}
	if m.err != nil {
		it.err = m.err
		return false
	}
	atomic.AddInt64(&it.pending, -1)
	it.cur = m.row
	return true
}

// Row returns the current row after Next reported true.
func (it *RowIter) Row() []Value { return it.cur }

// Err returns the error that terminated the stream, if any.
func (it *RowIter) Err() error { return it.err }

// Close stops the producer and drains the channel; the DB handle is free
// for the next statement once Close returns. Safe after exhaustion.
func (it *RowIter) Close() error {
	if it.buffered != nil {
		return it.err
	}
	if !it.stopped {
		it.stopped = true
		close(it.stop)
	}
	for range it.ch {
	}
	return it.err
}

// MaxBuffered reports the high-water mark of rows held between producer
// and consumer — the bounded-memory guarantee streaming tests assert on.
func (it *RowIter) MaxBuffered() int64 { return atomic.LoadInt64(&it.maxPending) }
