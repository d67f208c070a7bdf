package logic

// The lookup tables below are transcriptions of the IEEE 1164
// STD_LOGIC_1164 package body. Rows are the first operand, columns the
// second, both in the order U X 0 1 Z W L H -.

var andTable = [NumValues][NumValues]Value{
	//        U     X     0     1     Z     W     L     H     -
	U:        {U, U, Zero, U, U, U, Zero, U, U},
	X:        {U, X, Zero, X, X, X, Zero, X, X},
	Zero:     {Zero, Zero, Zero, Zero, Zero, Zero, Zero, Zero, Zero},
	One:      {U, X, Zero, One, X, X, Zero, One, X},
	Z:        {U, X, Zero, X, X, X, Zero, X, X},
	W:        {U, X, Zero, X, X, X, Zero, X, X},
	L:        {Zero, Zero, Zero, Zero, Zero, Zero, Zero, Zero, Zero},
	H:        {U, X, Zero, One, X, X, Zero, One, X},
	DontCare: {U, X, Zero, X, X, X, Zero, X, X},
}

var orTable = [NumValues][NumValues]Value{
	//        U     X     0     1     Z     W     L     H     -
	U:        {U, U, U, One, U, U, U, One, U},
	X:        {U, X, X, One, X, X, X, One, X},
	Zero:     {U, X, Zero, One, X, X, Zero, One, X},
	One:      {One, One, One, One, One, One, One, One, One},
	Z:        {U, X, X, One, X, X, X, One, X},
	W:        {U, X, X, One, X, X, X, One, X},
	L:        {U, X, Zero, One, X, X, Zero, One, X},
	H:        {One, One, One, One, One, One, One, One, One},
	DontCare: {U, X, X, One, X, X, X, One, X},
}

var xorTable = [NumValues][NumValues]Value{
	//        U     X     0     1     Z     W     L     H     -
	U:        {U, U, U, U, U, U, U, U, U},
	X:        {U, X, X, X, X, X, X, X, X},
	Zero:     {U, X, Zero, One, X, X, Zero, One, X},
	One:      {U, X, One, Zero, X, X, One, Zero, X},
	Z:        {U, X, X, X, X, X, X, X, X},
	W:        {U, X, X, X, X, X, X, X, X},
	L:        {U, X, Zero, One, X, X, Zero, One, X},
	H:        {U, X, One, Zero, X, X, One, Zero, X},
	DontCare: {U, X, X, X, X, X, X, X, X},
}

var notTable = [NumValues]Value{
	U:        U,
	X:        X,
	Zero:     One,
	One:      Zero,
	Z:        X,
	W:        X,
	L:        One,
	H:        Zero,
	DontCare: X,
}

// Wide truth tables: the branch-free 64-lane forms of the scalar tables
// above, restricted to the {X,0,1,Z} subset the Word encoding represents.
// Each is a handful of bitwise ops computing all 64 lanes at once; the
// equivalence tests in wide_test.go check every lane of every operation
// against the scalar tables exhaustively.

// WideBuf normalizes drive strength: Z lanes become X, driven lanes pass
// through. It is the wide form of Value.Buf restricted to {X,0,1,Z}, and
// the input normalization every non-resolving gate applies.
func WideBuf(a Word) Word {
	z := ^(a.L | a.H) // floating lanes
	return Word{L: a.L | z, H: a.H | z}
}

// WideNot complements each lane (Z and X lanes give X).
func WideNot(a Word) Word {
	a = WideBuf(a)
	return Word{L: a.H, H: a.L}
}

// WideAnd is the lane-wise IEEE 1164 AND. A lane is 0 when either input
// is 0, 1 when both are 1, X otherwise.
func WideAnd(a, b Word) Word {
	a, b = WideBuf(a), WideBuf(b)
	return Word{L: a.L | b.L, H: a.H & b.H}
}

// WideOr is the lane-wise OR, the plane dual of WideAnd.
func WideOr(a, b Word) Word {
	a, b = WideBuf(a), WideBuf(b)
	return Word{L: a.L & b.L, H: a.H | b.H}
}

// WideXor is the lane-wise XOR: defined only where both lanes are driven,
// X everywhere else.
func WideXor(a, b Word) Word {
	a, b = WideBuf(a), WideBuf(b)
	k := (a.L ^ a.H) & (b.L ^ b.H) // both operands driven 0/1
	d := a.H ^ b.H                 // differing driven lanes -> 1
	return Word{L: k&^d | ^k, H: k&d | ^k}
}

// WideResolve combines two simultaneous drivers lane-wise. On the raw
// encoding the {X,0,1,Z} resolution function is exactly a plane OR: a
// floating lane (0,0) yields the other driver, agreeing drivers idempote,
// and 0-vs-1 conflict (1,0)|(0,1) gives X (1,1).
func WideResolve(a, b Word) Word {
	return Word{L: a.L | b.L, H: a.H | b.H}
}

// WideAndN folds WideAnd over vs; the AND of no inputs is all-1.
func WideAndN(vs ...Word) Word {
	acc := Splat(One)
	for _, v := range vs {
		acc = WideAnd(acc, v)
	}
	return acc
}

// WideOrN folds WideOr over vs; the OR of no inputs is all-0.
func WideOrN(vs ...Word) Word {
	acc := Splat(Zero)
	for _, v := range vs {
		acc = WideOr(acc, v)
	}
	return acc
}

// WideXorN folds WideXor over vs; the XOR of no inputs is all-0.
func WideXorN(vs ...Word) Word {
	acc := Splat(Zero)
	for _, v := range vs {
		acc = WideXor(acc, v)
	}
	return acc
}

// WideResolveN resolves any number of drivers; no drivers float at Z,
// which is the zero Word.
func WideResolveN(vs ...Word) Word {
	var acc Word
	for _, v := range vs {
		acc = WideResolve(acc, v)
	}
	return acc
}

// resolutionTable is the STD_LOGIC resolution function: the value of a net
// driven simultaneously by both operands.
var resolutionTable = [NumValues][NumValues]Value{
	//        U  X  0     1    Z  W  L  H  -
	U:        {U, U, U, U, U, U, U, U, U},
	X:        {U, X, X, X, X, X, X, X, X},
	Zero:     {U, X, Zero, X, Zero, Zero, Zero, Zero, X},
	One:      {U, X, X, One, One, One, One, One, X},
	Z:        {U, X, Zero, One, Z, W, L, H, X},
	W:        {U, X, Zero, One, W, W, W, W, X},
	L:        {U, X, Zero, One, L, W, L, W, X},
	H:        {U, X, Zero, One, H, W, W, H, X},
	DontCare: {U, X, X, X, X, X, X, X, X},
}
