package litedb

import "errors"

// Streaming result cursor (the "ted" shape from the related-work repos): a
// producer goroutine walks the join loop and hands each row to the consumer,
// so large scans never materialise the whole result set. (The tsql shard
// service's fan-out merge does not use it: it materialises each shard's
// rows before merging.)
//
// The hand-off is strict: the producer runs only while the consumer is
// blocked in Next or Close, and is parked at every other moment. The walk
// reads pages, and under core.EmbeddedDB a page read is charged to the
// enclave thread that is inside the ECALL; a producer that ran ahead of its
// consumer would read while nobody is inside and be charged nothing.

// errIterStop aborts the producer scan early (LIMIT satisfied or Close).
var errIterStop = errors.New("litedb: row iterator stopped")

// RowIter is a streaming cursor over one SELECT's rows. The owning DB
// handle must not run another statement until the iterator is exhausted
// (Next returned false) or closed. Not safe for concurrent use.
type RowIter struct {
	cols []string
	// resume carries the consumer's go-ahead for one more row (closed by
	// Close: unwind); yield carries the row back and is closed when the
	// producer has exited, after it set err. Both are unbuffered.
	resume chan struct{}
	yield  chan []Value
	done   bool
	cur    []Value
	err    error

	// buffered serves statements that inherently materialise
	// (aggregation, DISTINCT, ORDER BY, PRAGMA).
	buffered *Rows
}

// QueryIter runs a single SELECT (or PRAGMA) and returns a streaming
// cursor over its rows. Plain selects — including joins, WHERE and
// LIMIT/OFFSET — stream one row per Next; aggregation, GROUP BY,
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
		cols:   pl.resNames,
		resume: make(chan struct{}),
		yield:  make(chan []Value),
	}
	go func() {
		defer close(it.yield)
		if _, ok := <-it.resume; !ok {
			return
		}
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
			// The consumer sent on resume and is receiving: hand the row
			// over, then park until it asks for the next one.
			it.yield <- proj
			if _, ok := <-it.resume; !ok {
				return errIterStop
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
		if err != errIterStop {
			it.err = err
		}
	}()
	return it, nil
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
	if it.done {
		return false
	}
	it.resume <- struct{}{}
	row, ok := <-it.yield
	if !ok {
		it.done = true
		return false
	}
	it.cur = row
	return true
}

// Row returns the current row after Next reported true.
func (it *RowIter) Row() []Value { return it.cur }

// Err returns the error that terminated the stream, if any.
func (it *RowIter) Err() error { return it.err }

// Close unwinds the producer and waits for it to exit, which releases the
// leaf page a parked producer's scan holds pinned; the DB handle is free
// for the next statement once Close returns. Safe after exhaustion.
func (it *RowIter) Close() error {
	if it.buffered == nil && !it.done {
		it.done = true
		close(it.resume)
		for range it.yield {
		}
	}
	return it.err
}
