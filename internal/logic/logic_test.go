package logic

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// allValues lists the whole domain for exhaustive table checks.
var allValues = []Value{U, X, Zero, One, Z, W, L, H, DontCare}

// Generate lets testing/quick draw uniformly from the 9-valued domain.
func (Value) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(Value(r.Intn(int(NumValues))))
}

func TestStringAndParseRoundTrip(t *testing.T) {
	for _, v := range allValues {
		s := v.String()
		if len(s) != 1 {
			t.Fatalf("String(%d) = %q, want single character", v, s)
		}
		got, err := Parse(s[0])
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got != v {
			t.Errorf("Parse(String(%v)) = %v", v, got)
		}
	}
}

func TestParseLowerCase(t *testing.T) {
	for _, c := range []byte{'u', 'x', 'z', 'w', 'l', 'h'} {
		v, err := Parse(c)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c, err)
		}
		upper, _ := Parse(c - 'a' + 'A')
		if v != upper {
			t.Errorf("Parse(%q) = %v, want %v", c, v, upper)
		}
	}
}

func TestParseInvalid(t *testing.T) {
	for _, c := range []byte{'2', 'a', ' ', '?', 0} {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c)
		}
	}
}

func TestInvalidValueString(t *testing.T) {
	if got := Value(200).String(); got != "Value(200)" {
		t.Errorf("Value(200).String() = %q", got)
	}
	if Value(200).Valid() {
		t.Error("Value(200).Valid() = true")
	}
}

func TestBoolConversions(t *testing.T) {
	if FromBool(true) != One || FromBool(false) != Zero {
		t.Fatal("FromBool broken")
	}
	cases := []struct {
		v  Value
		b  bool
		ok bool
	}{
		{One, true, true}, {H, true, true},
		{Zero, false, true}, {L, false, true},
		{X, false, false}, {U, false, false}, {Z, false, false},
		{W, false, false}, {DontCare, false, false},
	}
	for _, c := range cases {
		b, ok := c.v.Bool()
		if b != c.b || ok != c.ok {
			t.Errorf("%v.Bool() = %v,%v want %v,%v", c.v, b, ok, c.b, c.ok)
		}
	}
}

func TestProjections(t *testing.T) {
	for _, v := range allValues {
		p := v.To01()
		if p != Zero && p != One && p != X {
			t.Errorf("To01(%v) = %v outside {0,1,X}", v, p)
		}
		q := v.To0()
		if q != Zero && q != One {
			t.Errorf("To0(%v) = %v outside {0,1}", v, q)
		}
		z := v.ToX01Z()
		if z != Zero && z != One && z != X && z != Z {
			t.Errorf("ToX01Z(%v) = %v outside {X,0,1,Z}", v, z)
		}
	}
	if One.To01() != One || Zero.To01() != Zero || H.To01() != One || L.To01() != Zero {
		t.Error("To01 mangles driven values")
	}
	if Z.ToX01Z() != Z {
		t.Error("ToX01Z must preserve Z")
	}
}

func TestSystemProject(t *testing.T) {
	for _, v := range allValues {
		if got := NineValued.Project(v); got != v {
			t.Errorf("9-valued projection changed %v to %v", v, got)
		}
		if got := TwoValued.Project(v); got != Zero && got != One {
			t.Errorf("2-valued projection of %v = %v", v, got)
		}
		fv := FourValued.Project(v)
		if fv != Zero && fv != One && fv != X && fv != Z {
			t.Errorf("4-valued projection of %v = %v", v, fv)
		}
	}
}

func TestSystemString(t *testing.T) {
	if TwoValued.String() != "2-valued" || FourValued.String() != "4-valued" ||
		NineValued.String() != "9-valued" {
		t.Error("System.String names wrong")
	}
	if System(7).String() != "System(7)" {
		t.Error("unknown system string wrong")
	}
}

// TestBooleanSubsetTruthTables pins the classic 2-valued behaviour.
func TestBooleanSubsetTruthTables(t *testing.T) {
	b := []Value{Zero, One}
	for _, a := range b {
		for _, c := range b {
			ab, _ := a.Bool()
			cb, _ := c.Bool()
			if And(a, c) != FromBool(ab && cb) {
				t.Errorf("And(%v,%v) = %v", a, c, And(a, c))
			}
			if Or(a, c) != FromBool(ab || cb) {
				t.Errorf("Or(%v,%v) = %v", a, c, Or(a, c))
			}
			if Xor(a, c) != FromBool(ab != cb) {
				t.Errorf("Xor(%v,%v) = %v", a, c, Xor(a, c))
			}
			if Nand(a, c) != FromBool(!(ab && cb)) {
				t.Errorf("Nand(%v,%v) = %v", a, c, Nand(a, c))
			}
			if Nor(a, c) != FromBool(!(ab || cb)) {
				t.Errorf("Nor(%v,%v) = %v", a, c, Nor(a, c))
			}
			if Xnor(a, c) != FromBool(ab == cb) {
				t.Errorf("Xnor(%v,%v) = %v", a, c, Xnor(a, c))
			}
		}
	}
	if Not(Zero) != One || Not(One) != Zero {
		t.Error("Not broken on Boolean subset")
	}
}

// TestWeakValuesActAsLevels checks H behaves as 1 and L as 0 through gates.
func TestWeakValuesActAsLevels(t *testing.T) {
	for _, v := range allValues {
		if And(L, v) != And(Zero, v) {
			t.Errorf("And(L,%v) != And(0,%v)", v, v)
		}
		if Or(H, v) != Or(One, v) {
			t.Errorf("Or(H,%v) != Or(1,%v)", v, v)
		}
		if Xor(H, v) != Xor(One, v) || Xor(L, v) != Xor(Zero, v) {
			t.Errorf("Xor weak mismatch at %v", v)
		}
	}
	if Not(H) != Zero || Not(L) != One {
		t.Error("Not must treat weak levels as levels")
	}
}

func TestTablesClosedOverDomain(t *testing.T) {
	for _, a := range allValues {
		if !Not(a).Valid() {
			t.Errorf("Not(%v) invalid", a)
		}
		for _, b := range allValues {
			for name, f := range map[string]func(Value, Value) Value{
				"And": And, "Or": Or, "Xor": Xor, "Resolve": Resolve,
			} {
				if got := f(a, b); !got.Valid() {
					t.Errorf("%s(%v,%v) = %v invalid", name, a, b, got)
				}
			}
		}
	}
}

func TestCommutativity(t *testing.T) {
	f := func(a, b Value) bool {
		return And(a, b) == And(b, a) &&
			Or(a, b) == Or(b, a) &&
			Xor(a, b) == Xor(b, a) &&
			Resolve(a, b) == Resolve(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAssociativity(t *testing.T) {
	f := func(a, b, c Value) bool {
		return And(And(a, b), c) == And(a, And(b, c)) &&
			Or(Or(a, b), c) == Or(a, Or(b, c)) &&
			Resolve(Resolve(a, b), c) == Resolve(a, Resolve(b, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeMorgan(t *testing.T) {
	f := func(a, b Value) bool {
		return Nand(a, b) == Or(Not(a), Not(b)) &&
			Nor(a, b) == And(Not(a), Not(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDoubleNegationOnStrengthNormalizedValues(t *testing.T) {
	// Not(Not(v)) loses strength information but must be stable once the
	// value is strength-normalized.
	f := func(a Value) bool {
		n := a.To01()
		return Not(Not(n)) == n || n == X && Not(Not(n)) == X
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDominance(t *testing.T) {
	// 0 dominates AND, 1 dominates OR, regardless of the other operand.
	f := func(a Value) bool {
		return And(Zero, a) == Zero && Or(One, a) == One
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIdentityOnDrivenValues(t *testing.T) {
	// 1 is the AND identity and 0 the OR/XOR identity up to strength
	// normalization; U propagates as U rather than degrading to X.
	for _, v := range allValues {
		want := v.To01()
		if v == U {
			want = U
		}
		if And(One, v) != want {
			t.Errorf("And(1,%v) = %v want %v", v, And(One, v), want)
		}
		if Or(Zero, v) != want {
			t.Errorf("Or(0,%v) = %v want %v", v, Or(Zero, v), want)
		}
		if Xor(Zero, v) != want {
			t.Errorf("Xor(0,%v) = %v want %v", v, Xor(Zero, v), want)
		}
	}
}

func TestXorSelfCancellation(t *testing.T) {
	for _, v := range allValues {
		got := Xor(v, v)
		if v.Known() {
			if got != Zero {
				t.Errorf("Xor(%v,%v) = %v want 0", v, v, got)
			}
		} else if got == Zero || got == One {
			t.Errorf("Xor(%v,%v) = %v should stay unknown", v, v, got)
		}
	}
}

func TestResolutionLattice(t *testing.T) {
	// Z is the resolution identity; U is absorbing; resolution is
	// idempotent.
	f := func(a Value) bool {
		return Resolve(Z, a) == a.resolveIdentityImage() &&
			Resolve(U, a) == U &&
			Resolve(a, a) == a.resolveSelfImage()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// resolveIdentityImage gives the expected value of Resolve(Z, v).
func (v Value) resolveIdentityImage() Value {
	if v == DontCare {
		return X
	}
	return v
}

// resolveSelfImage gives the expected value of Resolve(v, v).
func (v Value) resolveSelfImage() Value {
	if v == DontCare {
		return X
	}
	return v
}

func TestResolveConflicts(t *testing.T) {
	if Resolve(Zero, One) != X {
		t.Error("0 vs 1 must resolve to X")
	}
	if Resolve(L, H) != W {
		t.Error("L vs H must resolve to W")
	}
	if Resolve(One, L) != One || Resolve(Zero, H) != Zero {
		t.Error("strong drive must beat weak drive")
	}
}

func TestResolveN(t *testing.T) {
	if ResolveN() != Z {
		t.Error("empty net must float at Z")
	}
	if ResolveN(Z, Z, L) != L {
		t.Error("single weak driver must win over floats")
	}
	if ResolveN(One, Zero, Z) != X {
		t.Error("strong conflict must give X")
	}
}

func TestNAryFolds(t *testing.T) {
	if AndN() != One || OrN() != Zero || XorN() != Zero {
		t.Error("fold identities wrong")
	}
	if AndN(One, One, Zero) != Zero {
		t.Error("AndN wrong")
	}
	if OrN(Zero, Zero, One) != One {
		t.Error("OrN wrong")
	}
	if XorN(One, One, One) != One {
		t.Error("XorN wrong")
	}
	f := func(a, b, c Value) bool {
		return AndN(a, b, c) == And(And(And(One, a), b), c) &&
			OrN(a, b, c) == Or(Or(Or(Zero, a), b), c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEdges(t *testing.T) {
	if !RisingEdge(Zero, One) || !RisingEdge(L, H) || !RisingEdge(Zero, H) {
		t.Error("missed rising edges")
	}
	if RisingEdge(X, One) || RisingEdge(Zero, X) || RisingEdge(One, One) {
		t.Error("false rising edges")
	}
}

func TestBufNormalizesStrength(t *testing.T) {
	for _, v := range allValues {
		if v.Buf() != v.To01() {
			t.Errorf("Buf(%v) = %v", v, v.Buf())
		}
	}
}

func BenchmarkAnd(b *testing.B) {
	var sink Value
	for i := 0; i < b.N; i++ {
		sink = And(Value(i%9), Value((i+3)%9))
	}
	_ = sink
}

func BenchmarkResolveN(b *testing.B) {
	drivers := []Value{Z, L, Z, H, Z}
	var sink Value
	for i := 0; i < b.N; i++ {
		sink = ResolveN(drivers...)
	}
	_ = sink
}
