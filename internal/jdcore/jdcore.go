// Package jdcore lowers parsed smali classes to Java-like statements,
// mirroring the paper's use of jd-core to reconstruct Java code from smali
// before transition-edge calculation (§IV-B1: "we further convert the smali
// code to the corresponding Java code ... for the last step – transition edge
// calculation"). Algorithm 1 pattern-matches textual Java statements
// ("new Intent(Class A0, Class A1)", "F1.newInstance()", ...); this package
// produces those statements in both a typed form (what the analyzer consumes)
// and a rendered source form (what a human or metadata file sees).
package jdcore

import (
	"fmt"
	"strings"

	"fragdroid/internal/smali"
)

// StmtKind classifies a Java-like statement.
type StmtKind int

const (
	// StmtNewIntentExplicit is `intent = new Intent(Src.class, Dst.class)`.
	StmtNewIntentExplicit StmtKind = iota + 1
	// StmtSetClass is `intent.setClass(Src.class, Dst.class)`.
	StmtSetClass
	// StmtNewIntentAction is `intent = new Intent("action")`.
	StmtNewIntentAction
	// StmtSetAction is `intent.setAction("action")`.
	StmtSetAction
	// StmtStartActivity is `startActivity(intent)`.
	StmtStartActivity
	// StmtNewInstance is `new F()`.
	StmtNewInstance
	// StmtNewInstanceCall is `F.newInstance()`.
	StmtNewInstanceCall
	// StmtInstanceOf is `x instanceof F`.
	StmtInstanceOf
	// StmtGetFragmentManager is `getFragmentManager()` or
	// `getSupportFragmentManager()`; Support distinguishes them.
	StmtGetFragmentManager
	// StmtBeginTransaction is `fm.beginTransaction()`.
	StmtBeginTransaction
	// StmtTxnAdd is `txn.add(R.id.container, fragment)`.
	StmtTxnAdd
	// StmtTxnReplace is `txn.replace(R.id.container, fragment)`.
	StmtTxnReplace
	// StmtTxnRemove is `txn.remove(fragment)`.
	StmtTxnRemove
	// StmtTxnCommit is `txn.commit()`.
	StmtTxnCommit
	// StmtInflateFragmentView is a direct fragment view inflation that
	// bypasses the FragmentManager.
	StmtInflateFragmentView
	// StmtSetContentView is `setContentView(R.layout.x)`.
	StmtSetContentView
	// StmtSetClickListener is `findViewById(R.id.x).setOnClickListener(...)`.
	StmtSetClickListener
	// StmtSensitiveCall is an invocation of a sensitive API.
	StmtSensitiveCall
	// StmtSendBroadcast is `sendBroadcast(new Intent("action"))`.
	StmtSendBroadcast
	// StmtPutExtra is `intent.putExtra("key", "value")`.
	StmtPutExtra
	// StmtRequireExtra guards a component on a launching-intent extra; a
	// missing key force-closes the app.
	StmtRequireExtra
	// StmtOther covers statements Algorithm 1 has no interest in.
	StmtOther
)

// Statement is one lowered Java-like statement.
type Statement struct {
	Kind StmtKind
	// Class1 and Class2 carry class operands: for StmtNewIntentExplicit and
	// StmtSetClass, Class1 is the source and Class2 the destination; for the
	// single-class kinds (StmtNewInstance, StmtTxnAdd, ...) Class1 is it.
	Class1, Class2 string
	// Action is the intent action string for the action-based kinds.
	Action string
	// Res is the resource reference operand (@id/..., @layout/...).
	Res string
	// Ident is the handler identifier for StmtSetClickListener.
	Ident string
	// Key and Value carry the extra for StmtPutExtra and StmtRequireExtra.
	Key, Value string
	// API is the sensitive API name for StmtSensitiveCall.
	API string
	// Support is true for getSupportFragmentManager.
	Support bool
	// Line is the originating smali line.
	Line int
	// ins is the lowered instruction; Source renders from it on demand.
	ins *smali.Instr
}

// Method is a lowered method.
type Method struct {
	Name       string
	Statements []Statement
}

// Class is a lowered class.
type Class struct {
	Name    string
	Super   string
	Methods []Method
	// SourceFile is carried over from the smali class.
	SourceFile string
	// stmts holds every statement of the class in declaration order; each
	// method's Statements is a subslice of it.
	stmts []Statement
}

// Method returns the named lowered method, or nil.
func (c *Class) Method(name string) *Method {
	for i := range c.Methods {
		if c.Methods[i].Name == name {
			return &c.Methods[i]
		}
	}
	return nil
}

// Statements returns all statements of the class, across methods, in
// declaration order. Algorithm 1 iterates "all lines in A0.java"; this is
// that view. The slice is the class's own storage and must not be modified.
func (c *Class) Statements() []Statement {
	return c.stmts
}

// Program is a lowered program keyed by class name.
type Program struct {
	classes map[string]*Class
	order   []string
}

// Class returns the lowered class, or nil.
func (p *Program) Class(name string) *Class { return p.classes[name] }

// Names returns lowered class names in insertion order.
func (p *Program) Names() []string { return append([]string(nil), p.order...) }

// Decompile lowers every class of a smali program. Each class's statements
// are lowered into one slice that its methods' Statements subslice.
func Decompile(sp *smali.Program) *Program {
	names := sp.Names()
	p := &Program{classes: make(map[string]*Class, len(names)), order: names}
	for _, name := range names {
		sc := sp.Class(name)
		n := 0
		for _, m := range sc.Methods {
			n += len(m.Body)
		}
		jc := &Class{
			Name: sc.Name, Super: sc.Super, SourceFile: sc.SourceFile,
			Methods: make([]Method, len(sc.Methods)),
			stmts:   make([]Statement, n),
		}
		off := 0
		for i, m := range sc.Methods {
			start := off
			for k := range m.Body {
				jc.stmts[off] = lower(&m.Body[k])
				off++
			}
			jc.Methods[i] = Method{Name: m.Name}
			if off > start {
				jc.Methods[i].Statements = jc.stmts[start:off:off]
			}
		}
		p.classes[jc.Name] = jc
	}
	return p
}

// simple returns the simple (package-free) class name.
func simple(dotted string) string {
	if i := strings.LastIndexByte(dotted, '.'); i >= 0 {
		return dotted[i+1:]
	}
	return dotted
}

// rid renders a resource reference as an R-expression ("@id/x" -> "R.id.x").
func rid(ref string) string {
	s := strings.TrimPrefix(strings.TrimPrefix(ref, "@+"), "@")
	return "R." + strings.ReplaceAll(s, "/", ".")
}

// Lower converts one smali instruction to its Java-like statement.
func Lower(ins smali.Instr) Statement {
	return lower(&ins)
}

// lower is Lower over an instruction that stays alive with the statement,
// so Decompile can point statements into the method bodies without copying.
func lower(ins *smali.Instr) Statement {
	st := Statement{Line: ins.Line, ins: ins}
	switch ins.Op {
	case smali.OpNewIntent:
		st.Kind = StmtNewIntentExplicit
		st.Class1, st.Class2 = ins.Args[0], ins.Args[1]
	case smali.OpSetClass:
		st.Kind = StmtSetClass
		st.Class1, st.Class2 = ins.Args[0], ins.Args[1]
	case smali.OpNewIntentAction:
		st.Kind = StmtNewIntentAction
		st.Action = ins.Args[0]
	case smali.OpSetAction:
		st.Kind = StmtSetAction
		st.Action = ins.Args[0]
	case smali.OpStartActivity:
		st.Kind = StmtStartActivity
	case smali.OpSendBroadcast:
		st.Kind = StmtSendBroadcast
		st.Action = ins.Args[0]
	case smali.OpPutExtra:
		st.Kind = StmtPutExtra
		st.Key, st.Value = ins.Args[0], ins.Args[1]
	case smali.OpRequireExtra:
		st.Kind = StmtRequireExtra
		st.Key = ins.Args[0]
	case smali.OpNewInstance:
		st.Kind = StmtNewInstance
		st.Class1 = ins.Args[0]
	case smali.OpInvokeNewIn:
		st.Kind = StmtNewInstanceCall
		st.Class1 = ins.Args[0]
	case smali.OpInstanceOf:
		st.Kind = StmtInstanceOf
		st.Class1 = ins.Args[0]
	case smali.OpGetFragmentManager:
		st.Kind = StmtGetFragmentManager
	case smali.OpGetSupportFragmentManager:
		st.Kind = StmtGetFragmentManager
		st.Support = true
	case smali.OpBeginTransaction:
		st.Kind = StmtBeginTransaction
	case smali.OpTxnAdd:
		st.Kind = StmtTxnAdd
		st.Res, st.Class1 = ins.Args[0], ins.Args[1]
	case smali.OpTxnReplace:
		st.Kind = StmtTxnReplace
		st.Res, st.Class1 = ins.Args[0], ins.Args[1]
	case smali.OpTxnRemove:
		st.Kind = StmtTxnRemove
		st.Class1 = ins.Args[0]
	case smali.OpTxnCommit:
		st.Kind = StmtTxnCommit
	case smali.OpInflateView:
		st.Kind = StmtInflateFragmentView
		st.Res, st.Class1 = ins.Args[0], ins.Args[1]
	case smali.OpSetContentView:
		st.Kind = StmtSetContentView
		st.Res = ins.Args[0]
	case smali.OpSetClickListener:
		st.Kind = StmtSetClickListener
		st.Res, st.Ident = ins.Args[0], ins.Args[1]
	case smali.OpInvokeSensitive:
		st.Kind = StmtSensitiveCall
		st.API = ins.Args[0]
	case smali.OpLoadLibrary:
		st.Kind = StmtSensitiveCall
		st.API = "shell/loadLibrary"
	default:
		st.Kind = StmtOther
	}
	return st
}

// Source renders the statement as a Java source line. Only the rendered
// views (RenderJava, `fragdroid -java`) read it, so it is formatted on
// demand rather than at lowering time.
func (st Statement) Source() string {
	switch st.Kind {
	case StmtNewIntentExplicit:
		return fmt.Sprintf("Intent intent = new Intent(%s.class, %s.class);",
			simple(st.Class1), simple(st.Class2))
	case StmtSetClass:
		return fmt.Sprintf("intent.setClass(%s.this, %s.class);",
			simple(st.Class1), simple(st.Class2))
	case StmtNewIntentAction:
		return fmt.Sprintf("Intent intent = new Intent(%q);", st.Action)
	case StmtSetAction:
		return fmt.Sprintf("intent.setAction(%q);", st.Action)
	case StmtStartActivity:
		return "startActivity(intent);"
	case StmtSendBroadcast:
		return fmt.Sprintf("sendBroadcast(new Intent(%q));", st.Action)
	case StmtPutExtra:
		return fmt.Sprintf("intent.putExtra(%q, %q);", st.Key, st.Value)
	case StmtRequireExtra:
		return fmt.Sprintf("if (getIntent().getStringExtra(%q) == null) throw new IllegalStateException();", st.Key)
	case StmtNewInstance:
		return fmt.Sprintf("%s obj = new %s();", simple(st.Class1), simple(st.Class1))
	case StmtNewInstanceCall:
		return fmt.Sprintf("%s obj = %s.newInstance();", simple(st.Class1), simple(st.Class1))
	case StmtInstanceOf:
		return fmt.Sprintf("if (obj instanceof %s) { ... }", simple(st.Class1))
	case StmtGetFragmentManager:
		if st.Support {
			return "FragmentManager fm = getSupportFragmentManager();"
		}
		return "FragmentManager fm = getFragmentManager();"
	case StmtBeginTransaction:
		return "FragmentTransaction txn = fm.beginTransaction();"
	case StmtTxnAdd:
		return fmt.Sprintf("txn.add(%s, new %s());", rid(st.Res), simple(st.Class1))
	case StmtTxnReplace:
		return fmt.Sprintf("txn.replace(%s, new %s());", rid(st.Res), simple(st.Class1))
	case StmtTxnRemove:
		return fmt.Sprintf("txn.remove(%s);", simple(st.Class1))
	case StmtTxnCommit:
		return "txn.commit();"
	case StmtInflateFragmentView:
		return fmt.Sprintf("inflater.inflate(%s, new %s().onCreateView());",
			rid(st.Res), simple(st.Class1))
	case StmtSetContentView:
		return fmt.Sprintf("setContentView(%s);", rid(st.Res))
	case StmtSetClickListener:
		return fmt.Sprintf("findViewById(%s).setOnClickListener(v -> %s());",
			rid(st.Res), st.Ident)
	case StmtSensitiveCall:
		if st.ins != nil && st.ins.Op == smali.OpLoadLibrary {
			return fmt.Sprintf("System.loadLibrary(%q);", st.ins.Args[0])
		}
		return fmt.Sprintf("// sensitive: %s", st.API)
	}
	if st.ins == nil {
		return "//"
	}
	return "// " + st.ins.String()
}

// RenderJava renders the whole lowered class as pseudo-Java source. The
// static phase ships this in its metadata output, standing in for the .java
// files jd-core would produce.
func RenderJava(c *Class) string {
	var b strings.Builder
	fmt.Fprintf(&b, "public class %s extends %s {\n", simple(c.Name), simple(c.Super))
	for _, m := range c.Methods {
		fmt.Fprintf(&b, "    public void %s() {\n", m.Name)
		for _, s := range m.Statements {
			fmt.Fprintf(&b, "        %s\n", s.Source())
		}
		b.WriteString("    }\n")
	}
	b.WriteString("}\n")
	return b.String()
}
