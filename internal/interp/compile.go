package interp

import (
	"encoding/binary"
	"fmt"
	"math"

	"cucc/internal/kir"
)

// The compiler lowers a kernel body once per Runner to a tree of Go
// closures, one per statement and expression.  What an evaluation would
// otherwise re-decide is decided here: the operator, int versus float, an
// intrinsic's arity, a cast's type pair, a shared array's storage and
// element size, and a global buffer's raw row or element accessor.  The
// closures keep the reference semantics exactly: left-to-right evaluation,
// float32 rounding after every float operation, one Work charge per
// operation, one tick per loop test, and the first error stops the thread.
//
// No closure returns an error.  A failing operation latches its error on the
// thread with fail, which keeps the first one, and yields the zero Value;
// evaluation runs on to the end of the statement, where it can only latch
// errors fail discards.  Every statement checks t.err before it has any
// effect and then stops the thread with ctrlReturn.  A failed block reports
// zero Work, so the charges made after the failure do not show.

// exprFn evaluates an expression for one thread.
type exprFn func(t *thread) Value

// condFn evaluates an expression for its truth value.
type condFn func(t *thread) bool

// stmtFn executes a statement for one thread.
type stmtFn func(t *thread) ctrl

type ctrl uint8

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// thread is one GPU thread's state.
type thread struct {
	tx, ty int64
	// slots are the kernel's variable slots followed by the compiler's
	// literal and scratch slots.
	slots []Value
	work  Work
	iters int64
	// yield suspends the thread at a barrier; it is nil on the sequential
	// path, whose kernels have none.  It reports false when the block is
	// being abandoned, and the thread then returns.
	yield func(struct{}) bool
	// err is the first error the thread failed with.
	err error
}

// fail latches err unless the thread has already failed, and returns the
// zero Value a failed operation yields.
func (t *thread) fail(err error) Value {
	if t.err == nil {
		t.err = err
	}
	return Value{}
}

// outOfBounds latches the error of a load or store (op) of element i of mem,
// which has n elements.
func (t *thread) outOfBounds(kernel, op string, mem kir.MemRef, i, n int64) Value {
	return t.fail(fmt.Errorf("interp: %s: %s %s out of bounds: %s[%d] (len %d)", kernel, mem.Space, op, mem.Name, i, n))
}

// operand is a compiled operand: a closure, or (fn nil) a slot, which get
// reads in place to spare a call.  Literals get slots of their own, filled
// at thread start.
type operand struct {
	fn   exprFn
	slot int
}

func (o operand) get(t *thread) Value {
	if o.fn == nil {
		return t.slots[o.slot]
	}
	return o.fn(t)
}

// compiler holds what the closures of one Runner capture.
type compiler struct {
	r     *Runner
	k     *kir.Kernel
	raw   RawMemory // nil: element accessors only
	limit int64
}

func compile(r *Runner) stmtFn {
	c := &compiler{r: r, k: r.l.Kernel, limit: r.l.MaxLoopIters}
	c.raw, _ = r.l.Mem.(RawMemory)
	if c.limit == 0 {
		c.limit = DefaultMaxLoopIters
	}
	return c.block(c.k.Body)
}

// slot appends a thread slot starting at v and returns it as an operand.
func (c *compiler) slot(v Value) operand {
	c.r.image = append(c.r.image, v)
	return operand{slot: len(c.r.image) - 1}
}

func (c *compiler) operand(e kir.Expr) operand {
	switch e := e.(type) {
	case *kir.VarRef:
		return operand{slot: e.Slot}
	case *kir.IntLit:
		return c.slot(IntV(e.Val))
	case *kir.FloatLit:
		return c.slot(FloatV(float64(float32(e.Val))))
	}
	return operand{fn: c.expr(e)}
}

func (c *compiler) block(b kir.Block) stmtFn {
	fns := make([]stmtFn, len(b))
	for i, s := range b {
		fns[i] = c.stmt(s)
	}
	if len(fns) == 1 {
		return fns[0]
	}
	return func(t *thread) ctrl {
		for _, f := range fns {
			if c := f(t); c != ctrlNone {
				return c
			}
		}
		return ctrlNone
	}
}

func (c *compiler) stmt(s kir.Stmt) stmtFn {
	switch s := s.(type) {
	case *kir.Decl:
		if s.Init == nil {
			return c.assign(s.Slot, &kir.IntLit{})
		}
		return c.assign(s.Slot, s.Init)
	case *kir.Assign:
		return c.assign(s.Slot, s.Value)
	case *kir.Store:
		return c.store(s.Mem, c.operand(s.Index), c.operand(s.Value))
	case *kir.AtomicRMW:
		return c.atomic(s)
	case *kir.If:
		cond, then, els := c.cond(s.Cond), c.block(s.Then), c.block(s.Else)
		return func(t *thread) ctrl {
			ok := cond(t)
			switch {
			case t.err != nil:
				return ctrlReturn
			case ok:
				return then(t)
			}
			return els(t)
		}
	case *kir.For:
		return c.loop(s.Init, s.Cond, s.Post, s.Body)
	case *kir.While:
		return c.loop(nil, s.Cond, nil, s.Body)
	case *kir.Sync:
		return func(t *thread) ctrl {
			if t.yield != nil && !t.yield(struct{}{}) {
				return ctrlReturn
			}
			return ctrlNone
		}
	case *kir.Return:
		return constCtrl(ctrlReturn)
	case *kir.BreakStmt:
		return constCtrl(ctrlBreak)
	case *kir.ContinueStmt:
		return constCtrl(ctrlContinue)
	}
	err := fmt.Errorf("interp: unknown statement %T", s)
	return func(t *thread) ctrl { t.fail(err); return ctrlReturn }
}

func constCtrl(cc ctrl) stmtFn {
	return func(*thread) ctrl { return cc }
}

func (c *compiler) assign(slot int, e kir.Expr) stmtFn {
	val := c.expr(e)
	return func(t *thread) ctrl {
		v := val(t)
		if t.err != nil {
			return ctrlReturn
		}
		t.slots[slot] = v
		return ctrlNone
	}
}

// loop compiles a for loop (a while loop has no init or post).  Every test
// of the condition first charges one iteration against the thread's budget.
func (c *compiler) loop(init kir.Stmt, cond kir.Expr, post kir.Stmt, body kir.Block) stmtFn {
	test, run, limit := c.cond(cond), c.block(body), c.limit
	var first, next stmtFn
	if init != nil {
		first = c.stmt(init)
	}
	if post != nil {
		next = c.stmt(post)
	}
	return func(t *thread) ctrl {
		if first != nil && first(t) == ctrlReturn {
			return ctrlReturn
		}
		for {
			if t.iters++; t.iters > limit {
				t.fail(fmt.Errorf("interp: kernel %s: thread exceeded %d loop iterations (runaway loop?)", c.k.Name, limit))
				return ctrlReturn
			}
			ok := test(t)
			switch {
			case t.err != nil:
				return ctrlReturn
			case !ok:
				return ctrlNone
			}
			switch run(t) {
			case ctrlReturn:
				return ctrlReturn
			case ctrlBreak:
				return ctrlNone
			}
			if next != nil && next(t) == ctrlReturn {
				return ctrlReturn
			}
		}
	}
}

// atomic compiles a read-modify-write as a load and a store through scratch
// slots holding the index, the operand and the new value.
func (c *compiler) atomic(s *kir.AtomicRMW) stmtFn {
	idx, val := c.expr(s.Index), c.expr(s.Value)
	i, v, nv := c.slot(Value{}), c.slot(Value{}), c.slot(Value{})
	var elemT kir.ScalarType
	var am AtomicMemory
	if s.Mem.Space == kir.Global {
		elemT = c.k.Params[s.Mem.Param].Elem
		// Global atomics are serialized across blocks: the intra-node worker
		// pool runs blocks of one launch concurrently against the same node
		// memory.  The threads of one block never run concurrently.
		am, _ = c.r.l.Mem.(AtomicMemory)
	} else {
		elemT = c.k.SharedArrayByName(s.Mem.Name).Elem
	}
	ld, st := c.load(s.Mem, i, elemT), c.store(s.Mem, i, nv)
	combine := func(t *thread, old, v Value) Value { t.work.IntOps++; return IntV(old.I + v.I) }
	switch {
	case s.Op == kir.AtomicAdd && elemT == kir.F32:
		combine = func(t *thread, old, v Value) Value {
			t.work.Flops++
			return FloatV(float64(float32(old.F) + float32(v.F)))
		}
	case s.Op == kir.AtomicMax:
		combine = func(t *thread, old, v Value) Value {
			t.work.IntOps++
			if old.I >= v.I {
				return old
			}
			return v
		}
	case s.Op != kir.AtomicAdd:
		combine = func(*thread, Value, Value) Value { return Value{} }
	}
	return func(t *thread) ctrl {
		t.slots[i.slot] = idx(t)
		t.slots[v.slot] = val(t)
		if t.err != nil {
			return ctrlReturn
		}
		if am != nil {
			mu := am.AtomicShard(s.Mem.Param, int(t.slots[i.slot].I))
			mu.Lock()
			defer mu.Unlock()
		}
		t.slots[nv.slot] = combine(t, ld(t), t.slots[v.slot])
		return st(t) // a failed load stops the store
	}
}

// sharedArray returns the storage of the named shared array (nil when the
// kernel declares none by that name: every access is then out of bounds).
func (c *compiler) sharedArray(name string) []Value {
	for i, sh := range c.k.Shared {
		if sh.Name == name {
			return c.r.shared[i]
		}
	}
	return nil
}

// load compiles a read of element idx of mem as type elemT.  Every element
// type has a closure of its own, and the bounds check comes first in each.
func (c *compiler) load(mem kir.MemRef, idx operand, elemT kir.ScalarType) exprFn {
	name, size := c.k.Name, int64(elemT.Size())
	if mem.Space == kir.Shared {
		arr := c.sharedArray(mem.Name)
		return func(t *thread) Value {
			i := idx.get(t).I
			if i >= 0 && i < int64(len(arr)) {
				t.work.SharedBytes += size
				return arr[i]
			}
			return t.outOfBounds(name, "load", mem, i, int64(len(arr)))
		}
	}
	m, p := c.r.l.Mem, mem.Param
	n := int64(m.Len(p))
	var data []byte
	if c.raw != nil {
		data = c.raw.RawBytes(p)
	}
	var get func(i int64) Value
	switch {
	case elemT == kir.F32 && data != nil:
		// The suite's hot load has a closure of its own.
		return func(t *thread) Value {
			i := idx.get(t).I
			if i >= 0 && i < n {
				t.work.GlobalLoadBytes += 4
				return FloatV(float64(math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))))
			}
			return t.outOfBounds(name, "load", mem, i, n)
		}
	case elemT == kir.I32 && data != nil:
		get = func(i int64) Value { return IntV(int64(int32(binary.LittleEndian.Uint32(data[4*i:])))) }
	case elemT == kir.U8 && data != nil:
		get = func(i int64) Value { return IntV(int64(data[i])) }
	case elemT == kir.F32:
		get = func(i int64) Value { return FloatV(float64(m.LoadF32(p, int(i)))) }
	case elemT == kir.I32:
		get = func(i int64) Value { return IntV(int64(m.LoadI32(p, int(i)))) }
	case elemT == kir.U8:
		get = func(i int64) Value { return IntV(int64(m.LoadU8(p, int(i)))) }
	default:
		err := fmt.Errorf("interp: bad load type %s", elemT)
		return func(t *thread) Value {
			if i := idx.get(t).I; i < 0 || i >= n {
				return t.outOfBounds(name, "load", mem, i, n)
			}
			return t.fail(err)
		}
	}
	return func(t *thread) Value {
		i := idx.get(t).I
		if i >= 0 && i < n {
			t.work.GlobalLoadBytes += size
			return get(i)
		}
		return t.outOfBounds(name, "load", mem, i, n)
	}
}

// store compiles a write of val to element idx of mem: a global buffer
// stores its declared element type, a shared array the Value as is.
func (c *compiler) store(mem kir.MemRef, idx, val operand) stmtFn {
	var n int64
	var put func(t *thread, i int64, v Value) // stores and charges the bytes
	if mem.Space == kir.Shared {
		arr := c.sharedArray(mem.Name)
		var size int64
		if sh := c.k.SharedArrayByName(mem.Name); sh != nil {
			size = int64(sh.Elem.Size())
		}
		n = int64(len(arr))
		put = func(t *thread, i int64, v Value) { arr[i] = v; t.work.SharedBytes += size }
	} else {
		m, p := c.r.l.Mem, mem.Param
		elem := c.k.Params[p].Elem
		size := int64(elem.Size())
		n = int64(m.Len(p))
		var data []byte
		if c.raw != nil {
			data = c.raw.RawBytes(p)
		}
		var set func(i int64, v Value)
		switch {
		case elem == kir.F32 && data != nil:
			set = func(i int64, v Value) { binary.LittleEndian.PutUint32(data[4*i:], math.Float32bits(float32(v.F))) }
		case elem == kir.I32 && data != nil:
			set = func(i int64, v Value) { binary.LittleEndian.PutUint32(data[4*i:], uint32(int32(v.I))) }
		case elem == kir.U8 && data != nil:
			set = func(i int64, v Value) { data[i] = byte(v.I) }
		case elem == kir.F32:
			set = func(i int64, v Value) { m.StoreF32(p, int(i), float32(v.F)) }
		case elem == kir.I32:
			set = func(i int64, v Value) { m.StoreI32(p, int(i), int32(v.I)) }
		case elem == kir.U8:
			set = func(i int64, v Value) { m.StoreU8(p, int(i), byte(v.I)) }
		default:
			set = func(int64, Value) {}
		}
		put = func(t *thread, i int64, v Value) { set(i, v); t.work.GlobalStoreBytes += size }
	}
	name := c.k.Name
	return func(t *thread) ctrl {
		i, v := idx.get(t).I, val.get(t)
		switch {
		case t.err != nil:
			return ctrlReturn
		case i >= 0 && i < n:
			put(t, i, v)
			return ctrlNone
		}
		t.outOfBounds(name, "store", mem, i, n)
		return ctrlReturn
	}
}

func (c *compiler) expr(e kir.Expr) exprFn {
	switch e := e.(type) {
	case *kir.IntLit:
		return constExpr(IntV(e.Val))
	case *kir.FloatLit:
		return constExpr(FloatV(float64(float32(e.Val))))
	case *kir.VarRef:
		slot := e.Slot
		return func(t *thread) Value { return t.slots[slot] }
	case *kir.BuiltinRef:
		return c.builtin(e)
	case *kir.Binary:
		if e.Op.IsComparison() || e.Op.IsLogical() {
			return boolExpr(c.cond(e))
		}
		return c.arith(e)
	case *kir.Unary:
		if e.Op != kir.Neg {
			return boolExpr(c.cond(e))
		}
		x := c.expr(e.X)
		if e.T == kir.F32 {
			return func(t *thread) Value { v := x(t); t.work.Flops++; return FloatV(-v.F) }
		}
		return func(t *thread) Value { v := x(t); t.work.IntOps++; return IntV(-v.I) }
	case *kir.Load:
		return c.load(e.Mem, c.operand(e.Index), e.T)
	case *kir.Call:
		return c.call(e)
	case *kir.Cast:
		return c.cast(e)
	case *kir.Select:
		cond, a, b := c.cond(e.Cond), c.expr(e.A), c.expr(e.B)
		return func(t *thread) Value {
			if cond(t) {
				return a(t)
			}
			return b(t)
		}
	}
	err := fmt.Errorf("interp: unknown expression %T", e)
	return func(t *thread) Value { return t.fail(err) }
}

func constExpr(v Value) exprFn {
	return func(*thread) Value { return v }
}

// boolExpr turns a truth value into the 0/1 integer a kernel computes with.
func boolExpr(cond condFn) exprFn {
	return func(t *thread) Value {
		if cond(t) {
			return IntV(1)
		}
		return IntV(0)
	}
}

func (c *compiler) builtin(e *kir.BuiltinRef) exprFn {
	r := c.r
	switch {
	case e.B == kir.ThreadIdx && e.Axis == kir.X:
		return func(t *thread) Value { return IntV(t.tx) }
	case e.B == kir.ThreadIdx:
		return func(t *thread) Value { return IntV(t.ty) }
	case e.B == kir.BlockIdx && e.Axis == kir.X:
		return func(*thread) Value { return IntV(r.bx) }
	case e.B == kir.BlockIdx:
		return func(*thread) Value { return IntV(r.by) }
	case e.B == kir.BlockDim && e.Axis == kir.X:
		return constExpr(IntV(int64(r.l.Block.X)))
	case e.B == kir.BlockDim:
		return constExpr(IntV(int64(max(r.l.Block.Y, 1))))
	case e.Axis == kir.X:
		return constExpr(IntV(int64(r.l.Grid.X)))
	}
	return constExpr(IntV(int64(max(r.l.Grid.Y, 1))))
}

// cond compiles e for its truth value: comparisons, && / || and ! directly,
// anything else as nonzero in its own type.
func (c *compiler) cond(e kir.Expr) condFn {
	switch e := e.(type) {
	case *kir.Binary:
		switch {
		case e.Op.IsComparison():
			return c.compare(e)
		case e.Op == kir.LAnd:
			l, r := c.cond(e.L), c.cond(e.R)
			return func(t *thread) bool { return l(t) && r(t) }
		case e.Op == kir.LOr:
			l, r := c.cond(e.L), c.cond(e.R)
			return func(t *thread) bool { return l(t) || r(t) }
		}
	case *kir.Unary:
		if e.Op == kir.Not {
			x := c.cond(e.X)
			return func(t *thread) bool { return !x(t) }
		}
	}
	x := c.expr(e)
	if e != nil && e.Type() == kir.F32 {
		return func(t *thread) bool { return x(t).F != 0 }
	}
	return func(t *thread) bool { return x(t).I != 0 }
}

// compare compiles a comparison, float when either operand is float, to a
// closure with the comparison and its flop or integer op written in.
func (c *compiler) compare(e *kir.Binary) condFn {
	l, r := c.operand(e.L), c.operand(e.R)
	if e.L.Type() == kir.F32 || e.R.Type() == kir.F32 {
		switch e.Op {
		case kir.Lt:
			return func(t *thread) bool { a, b := l.get(t), r.get(t); t.work.Flops++; return a.F < b.F }
		case kir.Le:
			return func(t *thread) bool { a, b := l.get(t), r.get(t); t.work.Flops++; return a.F <= b.F }
		case kir.Gt:
			return func(t *thread) bool { a, b := l.get(t), r.get(t); t.work.Flops++; return a.F > b.F }
		case kir.Ge:
			return func(t *thread) bool { a, b := l.get(t), r.get(t); t.work.Flops++; return a.F >= b.F }
		case kir.Eq:
			return func(t *thread) bool { a, b := l.get(t), r.get(t); t.work.Flops++; return a.F == b.F }
		}
		return func(t *thread) bool { a, b := l.get(t), r.get(t); t.work.Flops++; return a.F != b.F }
	}
	switch e.Op {
	case kir.Lt:
		return func(t *thread) bool { a, b := l.get(t), r.get(t); t.work.IntOps++; return a.I < b.I }
	case kir.Le:
		return func(t *thread) bool { a, b := l.get(t), r.get(t); t.work.IntOps++; return a.I <= b.I }
	case kir.Gt:
		return func(t *thread) bool { a, b := l.get(t), r.get(t); t.work.IntOps++; return a.I > b.I }
	case kir.Ge:
		return func(t *thread) bool { a, b := l.get(t), r.get(t); t.work.IntOps++; return a.I >= b.I }
	case kir.Eq:
		return func(t *thread) bool { a, b := l.get(t), r.get(t); t.work.IntOps++; return a.I == b.I }
	}
	return func(t *thread) bool { a, b := l.get(t), r.get(t); t.work.IntOps++; return a.I != b.I }
}

// arith compiles an arithmetic operator, float when either operand is float,
// to a closure with the operation and its flop or integer op written in;
// float operations round their operands and result to single precision.
func (c *compiler) arith(e *kir.Binary) exprFn {
	l, r := c.operand(e.L), c.operand(e.R)
	if e.L.Type() == kir.F32 || e.R.Type() == kir.F32 {
		switch e.Op {
		case kir.Add:
			return func(t *thread) Value {
				a, b := l.get(t), r.get(t)
				t.work.Flops++
				return FloatV(float64(float32(a.F) + float32(b.F)))
			}
		case kir.Sub:
			return func(t *thread) Value {
				a, b := l.get(t), r.get(t)
				t.work.Flops++
				return FloatV(float64(float32(a.F) - float32(b.F)))
			}
		case kir.Mul:
			return func(t *thread) Value {
				a, b := l.get(t), r.get(t)
				t.work.Flops++
				return FloatV(float64(float32(a.F) * float32(b.F)))
			}
		case kir.Div:
			return func(t *thread) Value {
				a, b := l.get(t), r.get(t)
				t.work.Flops++
				return FloatV(float64(float32(a.F) / float32(b.F)))
			}
		}
		return failBinary(l, r, fmt.Errorf("interp: operator %s on floats", e.Op))
	}
	switch e.Op {
	case kir.Add:
		return func(t *thread) Value { a, b := l.get(t), r.get(t); t.work.IntOps++; return IntV(a.I + b.I) }
	case kir.Sub:
		return func(t *thread) Value { a, b := l.get(t), r.get(t); t.work.IntOps++; return IntV(a.I - b.I) }
	case kir.Mul:
		return func(t *thread) Value { a, b := l.get(t), r.get(t); t.work.IntOps++; return IntV(a.I * b.I) }
	case kir.BAnd:
		return func(t *thread) Value { a, b := l.get(t), r.get(t); t.work.IntOps++; return IntV(a.I & b.I) }
	case kir.BOr:
		return func(t *thread) Value { a, b := l.get(t), r.get(t); t.work.IntOps++; return IntV(a.I | b.I) }
	case kir.BXor:
		return func(t *thread) Value { a, b := l.get(t), r.get(t); t.work.IntOps++; return IntV(a.I ^ b.I) }
	case kir.Shl:
		return func(t *thread) Value { a, b := l.get(t), r.get(t); t.work.IntOps++; return IntV(a.I << uint(b.I)) }
	case kir.Shr:
		return func(t *thread) Value { a, b := l.get(t), r.get(t); t.work.IntOps++; return IntV(a.I >> uint(b.I)) }
	case kir.Div, kir.Rem:
		what, name, rem := "division", c.k.Name, e.Op == kir.Rem
		if rem {
			what = "modulo"
		}
		return func(t *thread) Value {
			a, b := l.get(t), r.get(t)
			t.work.IntOps++
			switch {
			case b.I == 0:
				return t.fail(fmt.Errorf("interp: %s: integer %s by zero", name, what))
			case rem:
				return IntV(a.I % b.I)
			}
			return IntV(a.I / b.I)
		}
	}
	return failBinary(l, r, fmt.Errorf("interp: operator %s on ints", e.Op))
}

// failBinary evaluates both operands and then fails with err: an operator
// the operand types do not support.
func failBinary(l, r operand, err error) exprFn {
	return func(t *thread) Value {
		l.get(t)
		r.get(t)
		return t.fail(err)
	}
}

// The intrinsics by arity; float results are rounded to single precision.
var (
	unaryFns = map[kir.Intrinsic]func(a Value) Value{
		kir.Sqrt: func(a Value) Value { return FloatV(float64(float32(math.Sqrt(a.F)))) },
		kir.Exp:  func(a Value) Value { return FloatV(float64(float32(math.Exp(a.F)))) },
		kir.Log:  func(a Value) Value { return FloatV(float64(float32(math.Log(a.F)))) },
		kir.Fabs: func(a Value) Value { return FloatV(float64(float32(math.Abs(a.F)))) },
		kir.Sin:  func(a Value) Value { return FloatV(float64(float32(math.Sin(a.F)))) },
		kir.Cos:  func(a Value) Value { return FloatV(float64(float32(math.Cos(a.F)))) },
		kir.Tanh: func(a Value) Value { return FloatV(float64(float32(math.Tanh(a.F)))) },
		kir.AbsI: func(a Value) Value { return IntV(max(a.I, -a.I)) },
	}
	binaryFns = map[kir.Intrinsic]func(a, b Value) Value{
		kir.Fmin: func(a, b Value) Value { return FloatV(float64(float32(math.Min(a.F, b.F)))) },
		kir.Fmax: func(a, b Value) Value { return FloatV(float64(float32(math.Max(a.F, b.F)))) },
		kir.Pow:  func(a, b Value) Value { return FloatV(float64(float32(math.Pow(a.F, b.F)))) },
		kir.MinI: func(a, b Value) Value { return IntV(min(a.I, b.I)) },
		kir.MaxI: func(a, b Value) Value { return IntV(max(a.I, b.I)) },
	}
)

// call compiles an intrinsic: its arguments left to right, then the flop
// charge of the table, whatever the intrinsic's type.
func (c *compiler) call(e *kir.Call) exprFn {
	flops := intrinsicFlops[e.Fn]
	if f, ok := unaryFns[e.Fn]; ok {
		x := c.expr(e.Args[0])
		return func(t *thread) Value { a := x(t); t.work.Flops += flops; return f(a) }
	}
	f, ok := binaryFns[e.Fn]
	if !ok {
		err := fmt.Errorf("interp: unknown intrinsic %s", e.Fn)
		return func(t *thread) Value { return t.fail(err) }
	}
	x, y := c.expr(e.Args[0]), c.expr(e.Args[1])
	return func(t *thread) Value { a, b := x(t), y(t); t.work.Flops += flops; return f(a, b) }
}

// cast compiles a type conversion; the identity pairs compile to the
// operand itself.
func (c *compiler) cast(e *kir.Cast) exprFn {
	x, from, to := c.expr(e.X), e.X.Type(), e.To
	switch {
	case from == to:
	case to == kir.F32 && (from.IsInteger() || from == kir.Bool):
		return func(t *thread) Value { return FloatV(float64(float32(x(t).I))) }
	case to.IsInteger() && from == kir.F32:
		return func(t *thread) Value { return IntV(int64(x(t).F)) }
	case to == kir.U8:
		return func(t *thread) Value { return IntV(int64(byte(x(t).I))) }
	}
	return x
}
