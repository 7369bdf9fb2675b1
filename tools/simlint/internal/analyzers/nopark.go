package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"ptperf/tools/simlint/internal/lint"
)

// NoParkInEvent enforces the PR-9 inline-event contract documented in
// netem's Clock.EventAt: an event callback executes on the dispatching
// goroutine with the scheduler's active count at zero, so any parking
// wait inside it panics at runtime as an unregistered-goroutine wait —
// and only on the seed/schedule that happens to contend. This analyzer
// finds those paths at compile time.
//
// Roots (the event-callback entry points):
//   - the callback argument of (netem.Clock).EventAt and of
//     (netem.Clock).ReadyEvent — including callbacks
//     stored in struct fields first (p.sinkFn, s.flushFn): every
//     function ever assigned to such a field in the package is treated
//     as a root;
//   - the sink argument of (netem.Conn).SetReadSink and SetLoopSink and
//     the package-internal (netem.pipe).setSink — which covers the tor
//     cell sinks (cellSink, clientCell, backwardSink) and the relay
//     scheduler's flush pass, both armed through these APIs;
//   - the handler argument of (netem.Listener).Serve, which the accept
//     loop calls from the run queue for each conn: every server's
//     accept path, a PT server's handshake and target read among them;
//   - the three handler arguments (cut, frame, stop) of
//     pt.NewFrameConn, which that endpoint's read sink calls: the
//     tunnelling transports' frame handlers live in their own packages,
//     where the sink's calls through its fields cannot be followed;
//   - the dial argument of pt.HandleWithDialer, which the set-3
//     server's handler starts from the run queue (a function given as
//     a pt.DialerFunc);
//   - the Next method of the body given to pt.Chain.Play, a PT dialer's
//     one dial body: its event form runs Next from each wait's
//     continuation, so Next waits only through its Chain;
//   - the continuation of every event form, a method whose name ends in
//     Event and whose last parameter is a func without results: netem's
//     Cond.WaitEvent, Mutex.LockEvent, Chan.RecvEvent, Host.DialEvent
//     and Conn.ReadEvent, WriteEvent and the rest, and the conns'
//     ReadEvent, WriteEvent, CloseEvent and CloseWriteEvent that
//     pt.Splice's and tor's pumps (the client's first-hop pump and every
//     relay link's, with its dials) hand themselves to. It runs where a
//     parked goroutine would have resumed, on the dispatching driver.
//
// From each root the analyzer walks the intra-package static call graph
// (direct calls to functions and methods declared in the same package,
// immediately-analyzable function literals, and calls through func-typed
// struct fields, to everything ever assigned to the field). Reaching any
// parking primitive is an error:
//   - netem scheduler waits: Clock.Sleep/SleepUntil, Cond.Wait,
//     Mutex.Lock, WaitGroup.Wait, Chan.Send/Recv, netem.Await (the park
//     seam a goroutine calls an event form through: in a callback it
//     would park the driver mid-dispatch), and the waits of a conn's
//     life: Host.Dial (its round trip), Listener.Accept and a Tor
//     client's tor.Client.Dial and Preheat, which await;
//   - any event form called with a literal nil continuation: a conn's
//     reads and writes park so called (netem.Conn.Write is
//     WriteEvent(p, nil)), and a dial engine, which has no such form
//     (a PT dialer's DialEvent, pt.Handshake.RunEvent), would panic at
//     its first wait. The walker does not enter an event form's body;
//   - netem conn/pipe operations that park on backpressure or arrival:
//     Conn.Read/ReadFull/Write, pipe.push (pipe.readEvent parks when
//     called with nil, as every event form does), and Inbox.Read, which
//     a pt.Stream or tor.Stream has by promotion;
//   - interface escape hatches that reach the same parking code
//     dynamically: (net.Conn).Read/Write, (io.Reader).Read,
//     (io.Writer).Write, and io.ReadFull/ReadAtLeast/Copy/CopyN/
//     CopyBuffer.
//
// The legal surface inside a callback is the non-parking one: the event
// forms (Mutex.LockEvent, Chan.RecvEvent, Conn.ReadEvent,
// ReadFullEvent, WriteEvent and the rest, which leave a continuation
// where they would park), Conn.TryWrite, Conn.TryWriteOwned (the relay
// flush pass's refusal write), Chan.TrySend, Clock.Go (the spawned
// function is a registered goroutine and may park — its body is
// deliberately NOT traversed), and arming further EventAt events.
//
// Known limits (by design, per-package analysis without cross-package
// facts): calls into other packages' non-primitive functions are not
// traversed, and calls through function values other than struct
// fields, or through interfaces other than the registry above, are
// invisible. The runtime panic in Clock.park remains the backstop for
// those; this analyzer makes the overwhelmingly common direct paths a
// compile-time error instead.
var NoParkInEvent = &lint.Analyzer{
	Name: "noparkinevent",
	Doc: "functions reachable from Clock.EventAt arms, Conn.SetReadSink sinks, pt.NewFrameConn handlers, pt.HandleWithDialer " +
		"dials and event-form continuations must never reach a parking primitive; only the non-parking surface is allowed",
	Run: runNoParkInEvent,
}

// parkingMethods lists (package match, receiver type, method) parking
// primitives. pkg "netem" matches by final import-path segment; "net"
// and "io" match the standard-library paths exactly.
type primKey struct{ pkg, recv, name string }

var parkingMethods = map[primKey]string{
	{"netem", "Clock", "Sleep"}:        "parks until a virtual instant",
	{"netem", "Clock", "SleepUntil"}:   "parks until a virtual instant",
	{"netem", "", "Await"}:             "parks until the event form's continuation runs (call the event form)",
	{"netem", "Cond", "Wait"}:          "parks until broadcast",
	{"netem", "Mutex", "Lock"}:         "parks while contended (use LockEvent)",
	{"netem", "WaitGroup", "Wait"}:     "parks until the counter drains",
	{"netem", "Chan", "Send"}:          "parks while full (use TrySend)",
	{"netem", "Chan", "Recv"}:          "parks while empty (use RecvEvent)",
	{"netem", "Conn", "Read"}:          "parks until arrival (use ReadEvent)",
	{"netem", "Conn", "ReadFull"}:      "parks until the record completes (use ReadFullEvent)",
	{"netem", "Inbox", "Read"}:         "parks until a delivery (use ReadEvent)",
	{"netem", "Conn", "Write"}:         "parks on receive-window backpressure (use WriteEvent)",
	{"netem", "Host", "Dial"}:          "parks for the handshake's round trip (use DialEvent)",
	{"netem", "Listener", "Accept"}:    "parks until a conn arrives (use Listener.Serve)",
	{"tor", "Client", "Dial"}:          "parks for the circuit's build and the stream's open (use DialEvent)",
	{"tor", "Client", "Preheat"}:       "parks for the circuit's build",
	{"netem", "pipe", "push"}:          "parks on receive-window backpressure (use its event form)",
	{"net", "Conn", "Read"}:            "dynamic dispatch into a parking Read",
	{"net", "Conn", "Write"}:           "dynamic dispatch into a parking Write",
	{"io", "Reader", "Read"}:           "dynamic dispatch into a parking Read",
	{"io", "Writer", "Write"}:          "dynamic dispatch into a parking Write",
	{"io", "ReadWriter", "Read"}:       "dynamic dispatch into a parking Read",
	{"io", "ReadWriter", "Write"}:      "dynamic dispatch into a parking Write",
	{"io", "ReadCloser", "Read"}:       "dynamic dispatch into a parking Read",
	{"io", "WriteCloser", "Write"}:     "dynamic dispatch into a parking Write",
	{"io", "ReadWriteCloser", "Read"}:  "dynamic dispatch into a parking Read",
	{"io", "ReadWriteCloser", "Write"}: "dynamic dispatch into a parking Write",
	{"io", "", "ReadFull"}:             "loops over a parking Read",
	{"io", "", "ReadAtLeast"}:          "loops over a parking Read",
	{"io", "", "Copy"}:                 "loops over parking Read/Write",
	{"io", "", "CopyN"}:                "loops over parking Read/Write",
	{"io", "", "CopyBuffer"}:           "loops over parking Read/Write",
}

// parkingPrimitive reports whether f is a registered parking primitive,
// returning a description when it is.
func parkingPrimitive(f *types.Func) (string, string, bool) {
	if f == nil || f.Pkg() == nil {
		return "", "", false
	}
	pkgPath := f.Pkg().Path()
	pkgKey := pkgPath
	if seg := lastSegment(pkgPath); seg == "netem" || seg == "pt" || seg == "tor" {
		pkgKey = seg
	}
	if why, ok := parkingMethods[primKey{pkgKey, recvTypeName(f), f.Name()}]; ok {
		return funcLabel(f), why, true
	}
	return "", "", false
}

// funcLabel names f in a diagnostic: (pkg.Recv).Name or pkg.Name.
func funcLabel(f *types.Func) string {
	pkg := lastSegment(f.Pkg().Path())
	if recv := recvTypeName(f); recv != "" {
		return "(" + pkg + "." + recv + ")." + f.Name()
	}
	return pkg + "." + f.Name()
}

// contextSwitchers are netem Clock/Conn/pipe methods whose function-
// literal argument runs in a different context than the caller: Go's
// argument becomes a registered goroutine (may park), EventAt's and the
// sink setters' arguments are event callbacks (collected as roots
// separately). The walker does not descend into these literals.
func contextSwitchArg(f *types.Func) int {
	switch {
	case isMethodOf(f, "netem", "Clock", "Go"):
		return 0
	case isMethodOf(f, "netem", "Clock", "EventAt"):
		return 1
	case isMethodOf(f, "netem", "Clock", "ReadyEvent"):
		return 0
	case isMethodOf(f, "netem", "Listener", "Serve"):
		return 0
	case isMethodOf(f, "netem", "Conn", "SetReadSink"):
		return 0
	case isMethodOf(f, "netem", "Conn", "SetLoopSink"):
		return 0
	case isMethodOf(f, "netem", "pipe", "setSink"):
		return 0
	}
	return eventFormArg(f)
}

// eventFormArg returns the index of an event form's continuation, -1 if
// f is no event form: a method named ...Event whose last parameter is a
// func without results, func() or a result's taker like DialEvent's
// (ReadyEvent, the one such method that is not a wait, is matched
// earlier).
func eventFormArg(f *types.Func) int {
	if f == nil || !strings.HasSuffix(f.Name(), "Event") {
		return -1
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() == 0 {
		return -1
	}
	last := sig.Params().At(sig.Params().Len() - 1).Type()
	if fs, ok := last.Underlying().(*types.Signature); !ok || fs.Results().Len() != 0 {
		return -1
	}
	return sig.Params().Len() - 1
}

// root is one event-callback entry point.
type root struct {
	node ast.Node // *ast.FuncLit body-bearing node or *ast.FuncDecl
	desc string   // human description, e.g. "Clock.EventAt arm at pipe.go:254"
}

func runNoParkInEvent(pass *lint.Pass) error {
	a := &noParkAnalysis{
		pass:     pass,
		decls:    map[*types.Func]*ast.FuncDecl{},
		fieldFns: map[*types.Var][]ast.Expr{},
		visited:  map[ast.Node]bool{},
		reported: map[token.Pos]bool{},
	}
	a.index()
	roots := a.collectRoots()
	for _, r := range roots {
		a.walkContext(r.node, r.desc, nil)
	}
	return nil
}

type noParkAnalysis struct {
	pass     *lint.Pass
	decls    map[*types.Func]*ast.FuncDecl
	fieldFns map[*types.Var][]ast.Expr // func-typed field -> every RHS assigned to it
	visited  map[ast.Node]bool
	reported map[token.Pos]bool
}

// index builds the package's function-declaration table and the
// field-assignment table used to resolve callbacks stored in struct
// fields (p.sinkFn = p.sinkEvent).
func (a *noParkAnalysis) index() {
	info := a.pass.TypesInfo
	for _, f := range a.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if obj, ok := info.Defs[n.Name].(*types.Func); ok && n.Body != nil {
					a.decls[obj] = n
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					if v, ok := info.Selections[sel]; ok {
						if fv, ok := v.Obj().(*types.Var); ok && fv.IsField() && isFuncType(fv.Type()) {
							a.fieldFns[fv] = append(a.fieldFns[fv], n.Rhs[i])
						}
					}
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					if fv, ok := info.Uses[key].(*types.Var); ok && fv.IsField() && isFuncType(fv.Type()) {
						a.fieldFns[fv] = append(a.fieldFns[fv], kv.Value)
					}
				}
			}
			return true
		})
	}
}

func isFuncType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// collectRoots finds every event-arming call in the package and
// resolves its callback argument to analyzable function nodes.
func (a *noParkAnalysis) collectRoots() []root {
	var roots []root
	info := a.pass.TypesInfo
	for _, f := range a.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			var idxs []int
			var kind string
			switch {
			case isMethodOf(fn, "netem", "Clock", "EventAt"):
				idxs, kind = []int{1}, "Clock.EventAt arm"
			case isMethodOf(fn, "netem", "Clock", "ReadyEvent"):
				idxs, kind = []int{0}, "Clock.ReadyEvent arm"
			case isMethodOf(fn, "netem", "Listener", "Serve"):
				idxs, kind = []int{0}, "Listener.Serve handler"
			case isMethodOf(fn, "netem", "Conn", "SetReadSink"):
				idxs, kind = []int{0}, "Conn.SetReadSink sink"
			case isMethodOf(fn, "netem", "Conn", "SetLoopSink"):
				idxs, kind = []int{0}, "Conn.SetLoopSink sink"
			case isMethodOf(fn, "netem", "pipe", "setSink"):
				idxs, kind = []int{0}, "pipe.setSink sink"
			case isMethodOf(fn, "pt", "", "NewFrameConn"):
				idxs, kind = []int{0, 1, 2}, "pt.NewFrameConn handler"
			case isMethodOf(fn, "pt", "", "HandleWithDialer"):
				idxs, kind = []int{1}, "pt.HandleWithDialer dial"
			case isMethodOf(fn, "pt", "Chain", "Play"):
				idxs, kind = []int{0}, "pt.Chain.Play body"
			default:
				i := eventFormArg(fn)
				if i < 0 {
					return true
				}
				idxs, kind = []int{i}, recvTypeName(fn)+"."+fn.Name()+" continuation"
			}
			at := a.pass.Fset.Position(call.Pos())
			desc := kind + " at " + shortPos(at)
			for _, idx := range idxs {
				if idx >= len(call.Args) {
					continue
				}
				for _, node := range a.resolveCallback(call.Args[idx], 0) {
					roots = append(roots, root{node: node, desc: desc})
				}
			}
			return true
		})
	}
	return roots
}

// resolveCallback maps a callback expression to the function nodes it
// can denote: a literal, a function/method declared in this package, or
// — for struct-field callbacks — everything ever assigned to the field.
func (a *noParkAnalysis) resolveCallback(e ast.Expr, depth int) []ast.Node {
	if depth > 4 { // defensive bound on field -> field chains
		return nil
	}
	info := a.pass.TypesInfo
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return []ast.Node{e}
	case *ast.CallExpr: // a conversion: pt.DialerFunc(func ...)
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return a.resolveCallback(e.Args[0], depth+1)
		}
	case *ast.Ident:
		if f, ok := info.Uses[e].(*types.Func); ok {
			if d := a.decls[f]; d != nil {
				return []ast.Node{d}
			}
		} else if v, ok := info.Uses[e].(*types.Var); ok { // a pt.Body: its Next
			if next := types.NewMethodSet(v.Type()).Lookup(a.pass.Pkg, "Next"); next != nil {
				if d := a.decls[next.Obj().(*types.Func)]; d != nil {
					return []ast.Node{d}
				}
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			switch obj := sel.Obj().(type) {
			case *types.Func: // method value: circ.cellSink
				if d := a.decls[obj]; d != nil {
					return []ast.Node{d}
				}
			case *types.Var: // func-typed field: p.sinkFn
				if obj.IsField() {
					var out []ast.Node
					for _, rhs := range a.fieldFns[obj] {
						out = append(out, a.resolveCallback(rhs, depth+1)...)
					}
					return out
				}
			}
		} else if f, ok := info.Uses[e.Sel].(*types.Func); ok { // pkg.Fn
			if d := a.decls[f]; d != nil {
				return []ast.Node{d}
			}
		}
	}
	return nil
}

// walkContext traverses one function node in event-callback context,
// reporting parking-primitive calls and following intra-package calls.
// chain carries the call path from the root for diagnostics.
func (a *noParkAnalysis) walkContext(node ast.Node, rootDesc string, chain []string) {
	if a.visited[node] {
		return
	}
	a.visited[node] = true
	var body *ast.BlockStmt
	name := "func literal"
	switch n := node.(type) {
	case *ast.FuncDecl:
		body = n.Body
		name = n.Name.Name
		if n.Recv != nil {
			name = recvName(n) + "." + name
		}
	case *ast.FuncLit:
		body = n.Body
	}
	if body == nil {
		return
	}
	chain = append(chain, name)
	info := a.pass.TypesInfo

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		label, why, isPark := parkingPrimitive(fn)
		if i := eventFormArg(fn); !isPark && i >= 0 && i < len(call.Args) && isNilIdent(info, call.Args[i]) {
			label, why, isPark = funcLabel(fn), "with a nil continuation parks", true
		}
		if isPark {
			if !a.reported[call.Pos()] {
				a.reported[call.Pos()] = true
				a.pass.Reportf(call.Pos(),
					"%s %s inside an event callback (%s, via %s); event callbacks must never park — use the non-parking surface (the event forms, TryWrite, TrySend, Clock.Go, EventAt)",
					label, why, rootDesc, strings.Join(chain, " → "))
			}
			return true
		}
		// Do not descend into function literals that switch context
		// (Clock.Go goroutines; EventAt/sink arguments are separate
		// roots). Other arguments of those calls are still walked.
		if idx := contextSwitchArg(fn); idx >= 0 {
			for i, arg := range call.Args {
				if i == idx {
					continue
				}
				ast.Inspect(arg, walk)
			}
			ast.Inspect(call.Fun, walk)
			return false
		}
		if fn != nil {
			if d := a.decls[fn]; d != nil {
				a.walkContext(d, rootDesc, chain)
			}
			return true
		}
		// A call through a func-typed struct field reaches whatever was
		// ever assigned to the field in this package (a callback stored
		// beside the sink or event that calls it).
		for _, d := range a.resolveCallback(call.Fun, 0) {
			a.walkContext(d, rootDesc, chain)
		}
		return true
	}
	ast.Inspect(body, walk)
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	_, isNil := info.Uses[id].(*types.Nil)
	return ok && isNil
}

func recvName(d *ast.FuncDecl) string {
	if len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver Chan[T]
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func shortPos(p token.Position) string {
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name + ":" + strconv.Itoa(p.Line)
}
