package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// AckOrderConfig anchors the ackorder analyzer to the module layout.
type AckOrderConfig struct {
	// PkgPrefixes are the packages whose functions are checked (and whose
	// callees are summarized). Default: the collection tier.
	PkgPrefixes []string
	// StoreTypes are the WAL-bearing store types; their Append and Sync
	// methods are the durability primitives the ordering is stated over.
	StoreTypes []TypeRef
	// RequestStarts are the package-level functions that read the next
	// request's header off a connection that carries one request after
	// another. A reply acknowledges only the request it answers, so a call
	// to one starts a fresh request: the path state resets, and what the
	// connection's earlier requests appended or replied constrains nothing
	// in this one.
	RequestStarts []TypeRef
}

// DefaultAckOrderConfig matches the symfail module.
var DefaultAckOrderConfig = AckOrderConfig{
	PkgPrefixes:   []string{"symfail/internal/collect"},
	StoreTypes:    []TypeRef{{Pkg: "symfail/internal/collect", Name: "CrashStore"}},
	RequestStarts: []TypeRef{{Pkg: "symfail/internal/collect", Name: "readLine"}},
}

// The abstract state tracks two facts per control-flow path: is there a
// WAL append not yet covered by a Sync, and has a reply already been
// written to the connection. A path is a durability violation when a reply
// happens while an append is pending (acked data might not survive a
// crash), or when an append happens after a reply (the ACK on the wire
// cannot cover it).
type ackState uint8

const (
	apPending ackState = 1 << 0 // un-synced WAL append on this path
	apAcked   ackState = 1 << 1 // a reply has been written on this path
)

// stateSet is a bitmask over the four abstract states (bit i set ⇔ state
// i ∈ the set). Sets make the analysis path-sensitive: branches union
// their outcome sets instead of collapsing to one merged state.
type stateSet uint8

const cleanStates stateSet = 1 << 0 // the singleton {no pending, no ack}

func singleton(s ackState) stateSet { return 1 << s }

// eachState invokes f for every abstract state in the set and unions the
// transformed results.
func eachState(in stateSet, f func(ackState) stateSet) stateSet {
	var out stateSet
	for s := ackState(0); s < 4; s++ {
		if in&singleton(s) != 0 {
			out |= f(s)
		}
	}
	return out
}

// ackSummary is a function's effect, split by boolean return value so a
// caller branching on the result (`if !s.commit(e) { return }`) keeps the
// crash path and the success path separate. Functions that do not return
// bool carry the same set under both keys.
type ackSummary struct {
	onTrue  stateSet
	onFalse stateSet
}

func (s ackSummary) all() stateSet { return s.onTrue | s.onFalse }

func identitySummary(in stateSet) ackSummary { return ackSummary{onTrue: in, onFalse: in} }

// NewAckOrder builds the ackorder analyzer, the static twin of the
// collection tier's "acked ⊆ synced" invariant: on no control-flow path
// through a collect-package function may a reply reach the connection
// while a WAL append is unsynced, and no WAL append may follow a reply.
//
// The check is a path-sensitive abstract interpretation over each
// function's statement structure, with interprocedural effect summaries
// for callees inside the configured packages. Summaries are keyed by
// boolean return value, so the idiomatic `if !commit(e) { return }`
// correlation is understood exactly. Replies are writes through
// fmt.Fprint* (or raw Write/WriteString) to a net.Conn; a string literal
// first payload that does not begin with "OK" (an "ERR ..." rejection, a
// client verb header) is not a reply, and a non-literal payload is
// conservatively treated as one. A call to one of the configured request
// starts (the server's header read) resets the path state, so each request
// on a connection that carries many is checked on its own.
//
// Known approximations (all erring toward reporting): effects inside
// defer and go statements are applied at the statement's position;
// switch cases are analyzed without fallthrough chaining; loop analysis
// runs to a fixpoint over the state sets; recursive call cycles are cut
// with an identity summary.
func NewAckOrder(cfg AckOrderConfig) *Analyzer {
	if cfg.PkgPrefixes == nil {
		cfg = DefaultAckOrderConfig
	}
	a := &Analyzer{
		Name: "ackorder",
		Doc:  "prove no connection reply precedes the corresponding WAL append+sync on any control-flow path",
	}
	a.Run = func(pass *Pass) {
		if !pathHasPrefix(pass.Pkg.Path, cfg.PkgPrefixes) {
			return
		}
		an := &ackAnalyzer{
			pass:     pass,
			cfg:      cfg,
			g:        pass.Graph(),
			memo:     make(map[ackMemoKey]ackSummary),
			active:   make(map[ackMemoKey]bool),
			reported: make(map[token.Pos]map[string]bool),
		}
		for _, n := range an.g.FuncsOf(pass.Pkg) {
			an.analyze(n, cleanStates)
		}
	}
	return a
}

type ackMemoKey struct {
	fn    *types.Func
	entry stateSet
}

type ackAnalyzer struct {
	pass     *Pass
	cfg      AckOrderConfig
	g        *CallGraph
	memo     map[ackMemoKey]ackSummary
	active   map[ackMemoKey]bool // recursion guard
	reported map[token.Pos]map[string]bool

	conn         *types.Interface // net.Conn, resolved lazily through imports
	connResolved bool
}

func (a *ackAnalyzer) report(pos token.Pos, msg string) {
	if a.reported[pos] == nil {
		a.reported[pos] = make(map[string]bool)
	}
	if a.reported[pos][msg] {
		return
	}
	a.reported[pos][msg] = true
	a.pass.Reportf(pos, "%s", msg)
}

// analyze computes (and memoizes) the effect summary of one function for a
// given entry state set, reporting violations found along the way.
func (a *ackAnalyzer) analyze(n *CGNode, entry stateSet) ackSummary {
	key := ackMemoKey{fn: n.Fn, entry: entry}
	if sum, ok := a.memo[key]; ok {
		return sum
	}
	if a.active[key] {
		return identitySummary(entry) // recursion: cut the cycle
	}
	if n.Decl == nil || n.Decl.Body == nil || n.Pkg == nil || !pathHasPrefix(n.Pkg.Path, a.cfg.PkgPrefixes) {
		return identitySummary(entry)
	}
	a.active[key] = true
	fc := &ackFuncCtx{an: a, node: n, boolResult: lastResultIsBool(n.Fn)}
	out := fc.stmt(n.Decl.Body, entry)
	if out != 0 { // falling off the end is an exit too
		fc.retTrue |= out
		fc.retFalse |= out
	}
	sum := ackSummary{onTrue: fc.retTrue, onFalse: fc.retFalse}
	delete(a.active, key)
	a.memo[key] = sum
	return sum
}

func lastResultIsBool(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	basic, ok := sig.Results().At(sig.Results().Len() - 1).Type().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Bool
}

// ackFuncCtx is the per-function walking context.
type ackFuncCtx struct {
	an         *ackAnalyzer
	node       *CGNode
	boolResult bool
	retTrue    stateSet
	retFalse   stateSet
	loops      []*ackLoopCtx
}

type ackLoopCtx struct {
	breaks    stateSet
	continues stateSet
}

// stmt transforms the state set through one statement, returning the
// fall-through set (0 when control cannot fall through).
func (fc *ackFuncCtx) stmt(s ast.Stmt, in stateSet) stateSet {
	if in == 0 || s == nil {
		return in
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, sub := range s.List {
			in = fc.stmt(sub, in)
		}
		return in
	case *ast.IfStmt:
		return fc.ifStmt(s, in)
	case *ast.ForStmt:
		in = fc.stmt(s.Init, in)
		return fc.loop(in, s.Cond, s.Body, s.Post, s.Cond == nil)
	case *ast.RangeStmt:
		in = fc.expr(s.X, in)
		return fc.loop(in, nil, s.Body, nil, false)
	case *ast.SwitchStmt:
		in = fc.stmt(s.Init, in)
		in = fc.expr(s.Tag, in)
		return fc.caseClauses(s.Body, in)
	case *ast.TypeSwitchStmt:
		in = fc.stmt(s.Init, in)
		return fc.caseClauses(s.Body, in)
	case *ast.SelectStmt:
		var out stateSet
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			branch := fc.stmt(cc.Comm, in)
			for _, sub := range cc.Body {
				branch = fc.stmt(sub, branch)
			}
			out |= branch
		}
		if len(s.Body.List) == 0 {
			out = in
		}
		return out
	case *ast.ReturnStmt:
		fc.returns(s, in)
		return 0
	case *ast.BranchStmt:
		return fc.branch(s, in)
	case *ast.ExprStmt:
		return fc.expr(s.X, in)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			in = fc.expr(e, in)
		}
		for _, e := range s.Lhs {
			in = fc.expr(e, in)
		}
		return in
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						in = fc.expr(v, in)
					}
				}
			}
		}
		return in
	case *ast.DeferStmt:
		return fc.expr(s.Call, in) // effects charged at the defer site (documented over-approximation)
	case *ast.GoStmt:
		return fc.expr(s.Call, in)
	case *ast.SendStmt:
		in = fc.expr(s.Value, in)
		return fc.expr(s.Chan, in)
	case *ast.IncDecStmt:
		return fc.expr(s.X, in)
	case *ast.LabeledStmt:
		return fc.stmt(s.Stmt, in)
	case *ast.EmptyStmt:
		return in
	}
	return in
}

// ifStmt splits the state by the condition. When the condition is exactly
// a call (or its negation) into a summarized function with a boolean
// result, the then/else branches receive the summary's per-result sets —
// the `if !s.commit(e) { return }` correlation.
func (fc *ackFuncCtx) ifStmt(s *ast.IfStmt, in stateSet) stateSet {
	in = fc.stmt(s.Init, in)
	thenIn, elseIn := fc.cond(s.Cond, in)
	thenOut := fc.stmt(s.Body, thenIn)
	elseOut := elseIn
	if s.Else != nil {
		elseOut = fc.stmt(s.Else, elseIn)
	}
	return thenOut | elseOut
}

// cond evaluates a boolean condition, returning the state sets that reach
// the then and else branches respectively.
func (fc *ackFuncCtx) cond(e ast.Expr, in stateSet) (onTrue, onFalse stateSet) {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		t, f := fc.cond(u.X, in)
		return f, t
	}
	if call, ok := e.(*ast.CallExpr); ok {
		if sum, ok := fc.summarizedCall(call, in); ok {
			return sum.onTrue, sum.onFalse
		}
	}
	out := fc.expr(e, in)
	return out, out
}

// summarizedCall applies a call to a summarizable in-scope function:
// argument effects first, then the callee summary. ok is false when the
// call is a durability primitive, a reply, or out of scope.
func (fc *ackFuncCtx) summarizedCall(call *ast.CallExpr, in stateSet) (ackSummary, bool) {
	if fc.opOf(call) != ackOpNone {
		return ackSummary{}, false
	}
	fn := calleeOf(fc.node.Pkg.Info, call)
	if fn == nil {
		return ackSummary{}, false
	}
	callee := fc.an.g.NodeOf(fn)
	if callee == nil || callee.Decl == nil || callee.Pkg == nil || !pathHasPrefix(callee.Pkg.Path, fc.an.cfg.PkgPrefixes) {
		return ackSummary{}, false
	}
	pre := fc.callArgs(call, in)
	return fc.an.analyze(callee, pre), true
}

// callArgs applies the effects of evaluating a call's function expression
// and arguments (Go evaluates them before the call itself).
func (fc *ackFuncCtx) callArgs(call *ast.CallExpr, in stateSet) stateSet {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		in = fc.expr(sel.X, in)
	}
	for _, arg := range call.Args {
		in = fc.expr(arg, in)
	}
	return in
}

// expr transforms the state set through one expression, applying the
// durability ops of every call inside it.
func (fc *ackFuncCtx) expr(e ast.Expr, in stateSet) stateSet {
	if e == nil || in == 0 {
		return in
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		in = fc.callArgs(e, in)
		return fc.applyCall(e, in)
	case *ast.ParenExpr:
		return fc.expr(e.X, in)
	case *ast.UnaryExpr:
		return fc.expr(e.X, in)
	case *ast.BinaryExpr:
		in = fc.expr(e.X, in)
		return fc.expr(e.Y, in)
	case *ast.SelectorExpr:
		return fc.expr(e.X, in)
	case *ast.IndexExpr:
		in = fc.expr(e.X, in)
		return fc.expr(e.Index, in)
	case *ast.SliceExpr:
		in = fc.expr(e.X, in)
		in = fc.expr(e.Low, in)
		in = fc.expr(e.High, in)
		return fc.expr(e.Max, in)
	case *ast.StarExpr:
		return fc.expr(e.X, in)
	case *ast.TypeAssertExpr:
		return fc.expr(e.X, in)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			in = fc.expr(el, in)
		}
		return in
	case *ast.KeyValueExpr:
		return fc.expr(e.Value, in)
	case *ast.FuncLit:
		// A literal's body runs when called, not here; its effects are
		// charged to this function when it is invoked directly, and the
		// errdrop/determinism layers cover escaped closures.
		return in
	}
	return in
}

// applyCall applies one call's durability op or callee summary (arguments
// already evaluated).
func (fc *ackFuncCtx) applyCall(call *ast.CallExpr, in stateSet) stateSet {
	switch fc.opOf(call) {
	case ackOpAppend:
		return eachState(in, func(s ackState) stateSet {
			if s&apAcked != 0 {
				fc.an.report(call.Pos(), "WAL append after a reply was already written on this path: the acknowledgement on the wire cannot cover it")
			}
			return singleton(s | apPending)
		})
	case ackOpSync:
		return eachState(in, func(s ackState) stateSet {
			return singleton(s &^ apPending)
		})
	case ackOpAck:
		return eachState(in, func(s ackState) stateSet {
			if s&apPending != 0 {
				fc.an.report(call.Pos(), "reply may reach the connection before the WAL sync on this path: acknowledge only after Append+Sync")
			}
			return singleton(s | apAcked)
		})
	case ackOpRequest:
		return cleanStates
	}
	fn := calleeOf(fc.node.Pkg.Info, call)
	if fn == nil {
		return in
	}
	callee := fc.an.g.NodeOf(fn)
	if callee == nil || callee.Decl == nil || callee.Pkg == nil || !pathHasPrefix(callee.Pkg.Path, fc.an.cfg.PkgPrefixes) {
		return in
	}
	return fc.an.analyze(callee, in).all()
}

type ackOp int

const (
	ackOpNone ackOp = iota
	ackOpAppend
	ackOpSync
	ackOpAck
	ackOpRequest
)

// opOf classifies a call as one of the three durability primitives or a
// request start.
func (fc *ackFuncCtx) opOf(call *ast.CallExpr) ackOp {
	info := fc.node.Pkg.Info
	fn := calleeOf(info, call)
	if fn == nil {
		return ackOpNone
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ackOpNone
	}
	if sig.Recv() == nil && fn.Pkg() != nil {
		for _, ref := range fc.an.cfg.RequestStarts {
			if fn.Pkg().Path() == ref.Pkg && fn.Name() == ref.Name {
				return ackOpRequest
			}
		}
	}
	// Append / Sync on a configured store type.
	if sig.Recv() != nil && matchesRef(sig.Recv().Type(), fc.an.cfg.StoreTypes) {
		switch fn.Name() {
		case "Append":
			return ackOpAppend
		case "Sync":
			return ackOpSync
		}
		return ackOpNone
	}
	// fmt.Fprint* with a net.Conn destination.
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint") {
		if len(call.Args) >= 1 && fc.isConn(call.Args[0]) && fc.isReplyPayload(call.Args[1:]) {
			return ackOpAck
		}
		return ackOpNone
	}
	// Raw writes on a net.Conn receiver: payload invisible, conservatively
	// a reply.
	if sig.Recv() != nil && (fn.Name() == "Write" || fn.Name() == "WriteString") {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && fc.isConn(sel.X) {
			return ackOpAck
		}
	}
	return ackOpNone
}

// isConn reports whether e's static type is (or implements) net.Conn.
func (fc *ackFuncCtx) isConn(e ast.Expr) bool {
	t := fc.node.Pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	conn := fc.an.netConn(fc.node.Pkg)
	if conn == nil {
		return false
	}
	return types.Implements(t, conn) || types.Implements(types.NewPointer(t), conn)
}

// isReplyPayload reports whether the payload could be a positive reply: a
// leading string literal not starting with "OK" (an error rejection or a
// client verb header) is not, anything else conservatively is.
func (fc *ackFuncCtx) isReplyPayload(args []ast.Expr) bool {
	if len(args) == 0 {
		return true
	}
	tv, ok := fc.node.Pkg.Info.Types[args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return true
	}
	return strings.HasPrefix(constant.StringVal(tv.Value), "OK")
}

// netConn resolves the net.Conn interface through the package's imports.
func (a *ackAnalyzer) netConn(pkg *Package) *types.Interface {
	if a.connResolved {
		return a.conn
	}
	a.connResolved = true
	for _, imp := range pkg.Types.Imports() {
		if imp.Path() != "net" {
			continue
		}
		if tn, ok := imp.Scope().Lookup("Conn").(*types.TypeName); ok {
			a.conn, _ = tn.Type().Underlying().(*types.Interface)
		}
	}
	return a.conn
}

// returns records one exit, classified by the constant boolean result when
// the function returns bool (so callers can correlate on it).
func (fc *ackFuncCtx) returns(s *ast.ReturnStmt, in stateSet) {
	for _, res := range s.Results {
		in = fc.expr(res, in)
	}
	if fc.boolResult && len(s.Results) == 1 {
		if tv, ok := fc.node.Pkg.Info.Types[s.Results[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.Bool {
			if constant.BoolVal(tv.Value) {
				fc.retTrue |= in
			} else {
				fc.retFalse |= in
			}
			return
		}
	}
	fc.retTrue |= in
	fc.retFalse |= in
}

// branch handles break and continue against the innermost loop; goto is
// treated as falling through (the module has none).
func (fc *ackFuncCtx) branch(s *ast.BranchStmt, in stateSet) stateSet {
	if len(fc.loops) == 0 {
		return in
	}
	lc := fc.loops[len(fc.loops)-1]
	switch s.Tok {
	case token.BREAK:
		lc.breaks |= in
		return 0
	case token.CONTINUE:
		lc.continues |= in
		return 0
	}
	return in
}

// loop runs a loop body to a fixpoint over the state sets (the lattice has
// four points, so this terminates in at most four rounds).
func (fc *ackFuncCtx) loop(in stateSet, cond ast.Expr, body *ast.BlockStmt, post ast.Stmt, infinite bool) stateSet {
	lc := &ackLoopCtx{}
	fc.loops = append(fc.loops, lc)
	head := in
	var afterCond stateSet
	for {
		afterCond = fc.expr(cond, head)
		out := fc.stmt(body, afterCond)
		out = fc.stmt(post, out|lc.continues)
		next := head | out
		if next == head {
			break
		}
		head = next
	}
	fc.loops = fc.loops[:len(fc.loops)-1]
	if infinite {
		return lc.breaks
	}
	return afterCond | lc.breaks
}

// caseClauses unions the outcomes of a switch body's clauses (fallthrough
// is not chained — each clause is analyzed from the dispatch state, which
// over-approximates by union).
func (fc *ackFuncCtx) caseClauses(body *ast.BlockStmt, in stateSet) stateSet {
	var out stateSet
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		branch := in
		for _, e := range cc.List {
			branch = fc.expr(e, branch)
		}
		for _, sub := range cc.Body {
			branch = fc.stmt(sub, branch)
		}
		out |= branch
	}
	if !hasDefault {
		out |= in
	}
	return out
}
