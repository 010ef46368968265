package litedb

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// evalCtx carries the row scope and parameters during evaluation.
type evalCtx struct {
	rows    [][]Value // one row per FROM source
	rowids  []int64
	args    []Value
	aggVals []Value // aggregate results during finalisation
	aggMode bool
	noRow   bool // an aggregate over zero rows: a bare rowid reads NULL
	rng     *rand.Rand
}

// errEval reports an evaluation failure.
func errEval(format string, args ...any) error {
	return fmt.Errorf("litedb: %s", fmt.Sprintf(format, args...))
}

// bindScope names the FROM sources for column resolution.
type bindScope struct {
	names   []string // alias or table name per source
	schemas []*TableSchema
}

// bindExpr resolves every ColRef in e against the scope.
func bindExpr(e Expr, sc *bindScope) error {
	switch x := e.(type) {
	case nil, *Literal, *Param:
		return nil
	case *ColRef:
		return sc.resolve(x)
	case *Unary:
		return bindExpr(x.X, sc)
	case *Binary:
		if err := bindExpr(x.L, sc); err != nil {
			return err
		}
		return bindExpr(x.R, sc)
	case *Like:
		if err := bindExpr(x.X, sc); err != nil {
			return err
		}
		return bindExpr(x.Pattern, sc)
	case *InList:
		if err := bindExpr(x.X, sc); err != nil {
			return err
		}
		for _, it := range x.List {
			if err := bindExpr(it, sc); err != nil {
				return err
			}
		}
		return nil
	case *Between:
		for _, sub := range []Expr{x.X, x.Lo, x.Hi} {
			if err := bindExpr(sub, sc); err != nil {
				return err
			}
		}
		return nil
	case *IsNull:
		return bindExpr(x.X, sc)
	case *Call:
		for _, a := range x.Args {
			if err := bindExpr(a, sc); err != nil {
				return err
			}
		}
		return nil
	case *CaseExpr:
		if err := bindExpr(x.Operand, sc); err != nil {
			return err
		}
		for _, w := range x.Whens {
			if err := bindExpr(w.Cond, sc); err != nil {
				return err
			}
			if err := bindExpr(w.Res, sc); err != nil {
				return err
			}
		}
		return bindExpr(x.Else, sc)
	case *Cast:
		return bindExpr(x.X, sc)
	default:
		return errEval("unknown expression %T", e)
	}
}

func (sc *bindScope) resolve(cr *ColRef) error {
	if cr.bound {
		return nil
	}
	found := false
	for i, name := range sc.names {
		if cr.Table != "" && !strings.EqualFold(cr.Table, name) {
			continue
		}
		schema := sc.schemas[i]
		if strings.EqualFold(cr.Col, "rowid") ||
			(schema.RowidPK >= 0 && strings.EqualFold(cr.Col, schema.Cols[schema.RowidPK].Name)) {
			if found {
				return errEval("ambiguous column %s", cr.Col)
			}
			cr.src, cr.col, found = i, -1, true
			continue
		}
		for ci, col := range schema.Cols {
			if strings.EqualFold(col.Name, cr.Col) {
				if found {
					return errEval("ambiguous column %s", cr.Col)
				}
				cr.src, cr.col, found = i, ci, true
				break
			}
		}
	}
	if !found {
		return errEval("no such column: %s", colRefName(cr))
	}
	cr.bound = true
	return nil
}

func colRefName(cr *ColRef) string {
	if cr.Table != "" {
		return cr.Table + "." + cr.Col
	}
	return cr.Col
}

// eval computes the value of e in ctx.
func eval(e Expr, ctx *evalCtx) (Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, nil
	case *Param:
		if x.Idx > len(ctx.args) {
			return Value{}, errEval("missing argument %d", x.Idx)
		}
		return ctx.args[x.Idx-1], nil
	case *ColRef:
		if !x.bound {
			return Value{}, errEval("unbound column %s", colRefName(x))
		}
		if x.col == -1 {
			if ctx.noRow {
				return NullVal(), nil
			}
			return IntVal(ctx.rowids[x.src]), nil
		}
		row := ctx.rows[x.src]
		if x.col >= len(row) {
			return NullVal(), nil // ALTER TABLE ADD COLUMN: old rows are short
		}
		return row[x.col], nil
	case *Unary:
		return evalUnary(x, ctx)
	case *Binary:
		return evalBinary(x, ctx)
	case *Like:
		return evalLike(x, ctx)
	case *InList:
		return evalIn(x, ctx)
	case *Between:
		v, err := eval(x.X, ctx)
		if err != nil {
			return Value{}, err
		}
		lo, err := eval(x.Lo, ctx)
		if err != nil {
			return Value{}, err
		}
		hi, err := eval(x.Hi, ctx)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return NullVal(), nil
		}
		in := Compare(v, lo) >= 0 && Compare(v, hi) <= 0
		if x.Not {
			in = !in
		}
		return boolVal(in), nil
	case *IsNull:
		v, err := eval(x.X, ctx)
		if err != nil {
			return Value{}, err
		}
		res := v.IsNull()
		if x.Not {
			res = !res
		}
		return boolVal(res), nil
	case *Call:
		if ctx.aggMode && isAggregate(x.Name) {
			return ctx.aggVals[x.aggIdx], nil
		}
		return evalCall(x, ctx)
	case *CaseExpr:
		return evalCase(x, ctx)
	case *Cast:
		v, err := eval(x.X, ctx)
		if err != nil {
			return Value{}, err
		}
		return castTo(v, x.To), nil
	default:
		return Value{}, errEval("cannot evaluate %T", e)
	}
}

func boolVal(b bool) Value {
	if b {
		return IntVal(1)
	}
	return IntVal(0)
}

func evalUnary(x *Unary, ctx *evalCtx) (Value, error) {
	v, err := eval(x.X, ctx)
	if err != nil {
		return Value{}, err
	}
	if v.IsNull() && x.Op != "NOT" {
		return NullVal(), nil
	}
	switch x.Op {
	case "-":
		if v.Type() == Integer {
			return IntVal(-v.Int()), nil
		}
		return RealVal(-v.Real()), nil
	case "~":
		return IntVal(^v.Int()), nil
	case "NOT":
		if v.IsNull() {
			return NullVal(), nil
		}
		return boolVal(!v.Bool()), nil
	default:
		return Value{}, errEval("bad unary %s", x.Op)
	}
}

func evalBinary(x *Binary, ctx *evalCtx) (Value, error) {
	// Three-valued AND/OR evaluate lazily.
	if x.Op == "AND" || x.Op == "OR" {
		l, err := eval(x.L, ctx)
		if err != nil {
			return Value{}, err
		}
		if x.Op == "AND" {
			if !l.IsNull() && !l.Bool() {
				return boolVal(false), nil
			}
			r, err := eval(x.R, ctx)
			if err != nil {
				return Value{}, err
			}
			switch {
			case !r.IsNull() && !r.Bool():
				return boolVal(false), nil
			case l.IsNull() || r.IsNull():
				return NullVal(), nil
			default:
				return boolVal(true), nil
			}
		}
		if !l.IsNull() && l.Bool() {
			return boolVal(true), nil
		}
		r, err := eval(x.R, ctx)
		if err != nil {
			return Value{}, err
		}
		switch {
		case !r.IsNull() && r.Bool():
			return boolVal(true), nil
		case l.IsNull() || r.IsNull():
			return NullVal(), nil
		default:
			return boolVal(false), nil
		}
	}

	l, err := eval(x.L, ctx)
	if err != nil {
		return Value{}, err
	}
	r, err := eval(x.R, ctx)
	if err != nil {
		return Value{}, err
	}

	switch x.Op {
	case "IS":
		return boolVal(Compare(l, r) == 0), nil
	case "ISNOT":
		return boolVal(Compare(l, r) != 0), nil
	}
	if l.IsNull() || r.IsNull() {
		return NullVal(), nil
	}
	switch x.Op {
	case "=":
		return boolVal(Compare(l, r) == 0), nil
	case "!=":
		return boolVal(Compare(l, r) != 0), nil
	case "<":
		return boolVal(Compare(l, r) < 0), nil
	case "<=":
		return boolVal(Compare(l, r) <= 0), nil
	case ">":
		return boolVal(Compare(l, r) > 0), nil
	case ">=":
		return boolVal(Compare(l, r) >= 0), nil
	case "||":
		return TextVal(l.Text() + r.Text()), nil
	case "+", "-", "*":
		if l.Type() == Integer && r.Type() == Integer {
			a, b := l.Int(), r.Int()
			switch x.Op {
			case "+":
				return IntVal(a + b), nil
			case "-":
				return IntVal(a - b), nil
			default:
				return IntVal(a * b), nil
			}
		}
		a, b := l.Real(), r.Real()
		switch x.Op {
		case "+":
			return RealVal(a + b), nil
		case "-":
			return RealVal(a - b), nil
		default:
			return RealVal(a * b), nil
		}
	case "/":
		if l.Type() == Integer && r.Type() == Integer {
			if r.Int() == 0 {
				return NullVal(), nil
			}
			return IntVal(l.Int() / r.Int()), nil
		}
		if r.Real() == 0 {
			return NullVal(), nil
		}
		return RealVal(l.Real() / r.Real()), nil
	case "%":
		if r.Int() == 0 {
			return NullVal(), nil
		}
		return IntVal(l.Int() % r.Int()), nil
	case "<<":
		return IntVal(l.Int() << uint64(r.Int()&63)), nil
	case ">>":
		return IntVal(l.Int() >> uint64(r.Int()&63)), nil
	case "&":
		return IntVal(l.Int() & r.Int()), nil
	case "|":
		return IntVal(l.Int() | r.Int()), nil
	default:
		return Value{}, errEval("bad operator %s", x.Op)
	}
}

func evalLike(x *Like, ctx *evalCtx) (Value, error) {
	v, err := eval(x.X, ctx)
	if err != nil {
		return Value{}, err
	}
	pat, err := eval(x.Pattern, ctx)
	if err != nil {
		return Value{}, err
	}
	if v.IsNull() || pat.IsNull() {
		return NullVal(), nil
	}
	m := likeMatch(pat.Text(), v.Text())
	if x.Not {
		m = !m
	}
	return boolVal(m), nil
}

// likeMatch implements SQLite LIKE: '%' any sequence, '_' any character,
// ASCII case-insensitive.
func likeMatch(pattern, s string) bool {
	p := strings.ToLower(pattern)
	t := strings.ToLower(s)
	return likeRec(p, t)
}

func likeRec(p, s string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(p, s[i:]) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			p, s = p[1:], s[1:]
		default:
			if len(s) == 0 || p[0] != s[0] {
				return false
			}
			p, s = p[1:], s[1:]
		}
	}
	return len(s) == 0
}

func evalIn(x *InList, ctx *evalCtx) (Value, error) {
	v, err := eval(x.X, ctx)
	if err != nil {
		return Value{}, err
	}
	if v.IsNull() {
		return NullVal(), nil
	}
	sawNull := false
	for _, item := range x.List {
		iv, err := eval(item, ctx)
		if err != nil {
			return Value{}, err
		}
		if iv.IsNull() {
			sawNull = true
			continue
		}
		if Compare(v, iv) == 0 {
			return boolVal(!x.Not), nil
		}
	}
	if sawNull {
		return NullVal(), nil
	}
	return boolVal(x.Not), nil
}

func evalCase(x *CaseExpr, ctx *evalCtx) (Value, error) {
	var operand Value
	hasOperand := x.Operand != nil
	if hasOperand {
		var err error
		operand, err = eval(x.Operand, ctx)
		if err != nil {
			return Value{}, err
		}
	}
	for _, w := range x.Whens {
		c, err := eval(w.Cond, ctx)
		if err != nil {
			return Value{}, err
		}
		matched := false
		if hasOperand {
			matched = !c.IsNull() && !operand.IsNull() && Compare(operand, c) == 0
		} else {
			matched = !c.IsNull() && c.Bool()
		}
		if matched {
			return eval(w.Res, ctx)
		}
	}
	if x.Else != nil {
		return eval(x.Else, ctx)
	}
	return NullVal(), nil
}

func castTo(v Value, to Type) Value {
	if v.IsNull() {
		return v
	}
	switch to {
	case Integer:
		return IntVal(v.Int())
	case Real:
		return RealVal(v.Real())
	case Text:
		return TextVal(v.Text())
	case Blob:
		if v.Type() == Blob {
			return v
		}
		return BlobVal([]byte(v.Text()))
	default:
		return v
	}
}

// applyAffinity coerces an inserted value toward a column affinity,
// following SQLite's (lossless-only) rules.
func applyAffinity(v Value, aff Type) Value {
	if v.IsNull() || aff == Null {
		return v
	}
	switch aff {
	case Integer:
		switch v.Type() {
		case Integer:
			return v
		case Real:
			if f := v.Real(); f == math.Trunc(f) && !math.IsInf(f, 0) && f >= -9.2e18 && f <= 9.2e18 {
				return IntVal(int64(f))
			}
			return v
		case Text:
			s := strings.TrimSpace(v.Text())
			var iv int64
			var fv float64
			if _, err := fmt.Sscanf(s, "%d", &iv); err == nil && fmt.Sprint(iv) == s {
				return IntVal(iv)
			}
			if _, err := fmt.Sscanf(s, "%g", &fv); err == nil {
				return RealVal(fv)
			}
			return v
		}
	case Real:
		switch v.Type() {
		case Integer:
			return RealVal(v.Real())
		case Text:
			s := strings.TrimSpace(v.Text())
			var fv float64
			if _, err := fmt.Sscanf(s, "%g", &fv); err == nil {
				return RealVal(fv)
			}
		}
	case Text:
		switch v.Type() {
		case Integer, Real:
			return TextVal(v.Text())
		}
	}
	return v
}

// --- functions ---

func isAggregate(name string) bool {
	switch name {
	case "count", "sum", "avg", "total", "min", "max", "group_concat":
		return true
	}
	return false
}

// Note: min/max with multiple arguments are scalar functions; with one
// argument they are aggregates (matching SQLite).
func callIsAggregate(c *Call) bool {
	if !isAggregate(c.Name) {
		return false
	}
	if (c.Name == "min" || c.Name == "max") && len(c.Args) > 1 {
		return false
	}
	return true
}

func evalCall(x *Call, ctx *evalCtx) (Value, error) {
	if callIsAggregate(x) {
		return Value{}, errEval("aggregate %s() used outside aggregation", x.Name)
	}
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := eval(a, ctx)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	switch x.Name {
	case "length":
		if args[0].IsNull() {
			return NullVal(), nil
		}
		if args[0].Type() == Blob {
			return IntVal(int64(len(args[0].Blob()))), nil
		}
		return IntVal(int64(len(args[0].Text()))), nil
	case "abs":
		if args[0].IsNull() {
			return NullVal(), nil
		}
		if args[0].Type() == Integer {
			v := args[0].Int()
			if v < 0 {
				v = -v
			}
			return IntVal(v), nil
		}
		return RealVal(math.Abs(args[0].Real())), nil
	case "upper":
		return TextVal(strings.ToUpper(args[0].Text())), nil
	case "lower":
		return TextVal(strings.ToLower(args[0].Text())), nil
	case "substr", "substring":
		return substr(args)
	case "coalesce", "ifnull":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return NullVal(), nil
	case "nullif":
		if len(args) == 2 && Compare(args[0], args[1]) == 0 {
			return NullVal(), nil
		}
		return args[0], nil
	case "typeof":
		return TextVal(strings.ToLower(args[0].Type().String())), nil
	case "min", "max":
		best := args[0]
		for _, a := range args[1:] {
			if a.IsNull() || best.IsNull() {
				return NullVal(), nil
			}
			c := Compare(a, best)
			if (x.Name == "min" && c < 0) || (x.Name == "max" && c > 0) {
				best = a
			}
		}
		return best, nil
	case "random", "randomblob":
		if ctx.rng == nil {
			// EvalConst: a fresh draw per evaluation is not a constant.
			return Value{}, errEval("%s() is not a constant expression", x.Name)
		}
		if x.Name == "random" {
			return IntVal(ctx.rng.Int63() - ctx.rng.Int63()), nil
		}
		n := int(args[0].Int())
		if n < 1 {
			n = 1
		}
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(ctx.rng.Intn(256))
		}
		return BlobVal(b), nil
	case "zeroblob":
		n := int(args[0].Int())
		if n < 0 {
			n = 0
		}
		return BlobVal(make([]byte, n)), nil
	case "hex":
		src := args[0].Blob()
		if src == nil {
			src = []byte(args[0].Text())
		}
		const digits = "0123456789ABCDEF"
		out := make([]byte, 2*len(src))
		for i, b := range src {
			out[2*i] = digits[b>>4]
			out[2*i+1] = digits[b&0xF]
		}
		return TextVal(string(out)), nil
	case "replace":
		return TextVal(strings.ReplaceAll(args[0].Text(), args[1].Text(), args[2].Text())), nil
	case "instr":
		return IntVal(int64(strings.Index(args[0].Text(), args[1].Text()) + 1)), nil
	case "round":
		if args[0].IsNull() {
			return NullVal(), nil
		}
		digits := 0
		if len(args) > 1 {
			digits = int(args[1].Int())
		}
		scale := math.Pow10(digits)
		return RealVal(math.Round(args[0].Real()*scale) / scale), nil
	case "changes", "last_insert_rowid":
		return Value{}, errEval("%s() must be called through the DB API", x.Name)
	default:
		return Value{}, errEval("no such function: %s", x.Name)
	}
}

func substr(args []Value) (Value, error) {
	if args[0].IsNull() {
		return NullVal(), nil
	}
	s := args[0].Text()
	start := int(args[1].Int())
	length := len(s)
	if len(args) > 2 {
		length = int(args[2].Int())
	}
	// SQLite 1-based semantics with negative start counting from the end.
	if start < 0 {
		start = len(s) + start + 1
		if start < 1 {
			length += start - 1
			start = 1
		}
	}
	if start < 1 {
		start = 1
	}
	i := start - 1
	if i >= len(s) || length <= 0 {
		return TextVal(""), nil
	}
	end := i + length
	if end > len(s) {
		end = len(s)
	}
	return TextVal(s[i:end]), nil
}

// --- aggregates ---

type aggAcc struct {
	call    *Call
	count   int64
	sumI    int64
	sumF    float64
	sawReal bool
	sawAny  bool
	minV    Value
	maxV    Value
	concat  []string
}

func (a *aggAcc) step(ctx *evalCtx) error {
	if a.call.Star {
		a.count++
		return nil
	}
	v, err := eval(a.call.Args[0], ctx)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	a.count++
	switch a.call.Name {
	case "sum", "avg", "total":
		if v.Type() == Real {
			a.sawReal = true
		}
		a.sumI += v.Int()
		a.sumF += v.Real()
	case "min":
		if !a.sawAny || Compare(v, a.minV) < 0 {
			a.minV = v
		}
	case "max":
		if !a.sawAny || Compare(v, a.maxV) > 0 {
			a.maxV = v
		}
	case "group_concat":
		a.concat = append(a.concat, v.Text())
	}
	a.sawAny = true
	return nil
}

func (a *aggAcc) result() Value {
	switch a.call.Name {
	case "count":
		return IntVal(a.count)
	case "sum":
		if !a.sawAny {
			return NullVal()
		}
		if a.sawReal {
			return RealVal(a.sumF)
		}
		return IntVal(a.sumI)
	case "total":
		return RealVal(a.sumF)
	case "avg":
		if a.count == 0 {
			return NullVal()
		}
		return RealVal(a.sumF / float64(a.count))
	case "min":
		if !a.sawAny {
			return NullVal()
		}
		return a.minV
	case "max":
		if !a.sawAny {
			return NullVal()
		}
		return a.maxV
	case "group_concat":
		if !a.sawAny {
			return NullVal()
		}
		return TextVal(strings.Join(a.concat, ","))
	default:
		return NullVal()
	}
}

// collectAggregates walks expressions, assigning aggIdx to each aggregate
// call and returning the accumulator prototypes.
func collectAggregates(exprs []Expr) []*aggAcc {
	var accs []*aggAcc
	for _, e := range exprs {
		walkExpr(e, func(e Expr) bool {
			if c, ok := e.(*Call); ok && callIsAggregate(c) {
				c.aggIdx = len(accs)
				accs = append(accs, &aggAcc{call: c})
				return false // aggregate args are evaluated per-row by step
			}
			return true
		})
	}
	return accs
}

// walkExpr calls fn on e and, while fn returns true, on each of e's
// subexpressions, depth first.
func walkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *Unary:
		walkExpr(x.X, fn)
	case *Binary:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case *Like:
		walkExpr(x.X, fn)
		walkExpr(x.Pattern, fn)
	case *InList:
		walkExpr(x.X, fn)
		for _, it := range x.List {
			walkExpr(it, fn)
		}
	case *Between:
		walkExpr(x.X, fn)
		walkExpr(x.Lo, fn)
		walkExpr(x.Hi, fn)
	case *IsNull:
		walkExpr(x.X, fn)
	case *Call:
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
	case *CaseExpr:
		walkExpr(x.Operand, fn)
		for _, w := range x.Whens {
			walkExpr(w.Cond, fn)
			walkExpr(w.Res, fn)
		}
		walkExpr(x.Else, fn)
	case *Cast:
		walkExpr(x.X, fn)
	}
}
