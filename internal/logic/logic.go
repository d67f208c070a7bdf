// Package logic implements the multi-valued signal algebra used throughout
// the simulator.
//
// The value system is modeled on the IEEE 1164 standard logic package
// (STD_LOGIC_1164) referenced by the paper: nine values covering strong and
// weak drive strengths, high impedance, unknowns, and don't-care. Gate
// evaluation uses the standard AND/OR/XOR/NOT tables, and multi-driver nets
// are combined with the standard resolution function. Two- and four-valued
// projections are provided for simulators that run with a reduced system.
package logic

import "fmt"

// Value is one signal level of the 9-valued IEEE 1164 logic system.
//
// The numeric encoding is stable and dense so that Value can index lookup
// tables directly.
type Value uint8

// The nine standard logic values, in the conventional STD_LOGIC order.
const (
	U        Value = iota // uninitialized
	X                     // forcing unknown
	Zero                  // forcing 0
	One                   // forcing 1
	Z                     // high impedance
	W                     // weak unknown
	L                     // weak 0
	H                     // weak 1
	DontCare              // don't care ('-')

	// NumValues is the size of the value domain; valid values are < NumValues.
	NumValues
)

// valueRunes maps each Value to its conventional character.
var valueRunes = [NumValues]byte{'U', 'X', '0', '1', 'Z', 'W', 'L', 'H', '-'}

// String returns the conventional single-character name ("U", "X", "0", ...).
func (v Value) String() string {
	if v < NumValues {
		return string(valueRunes[v])
	}
	return fmt.Sprintf("Value(%d)", uint8(v))
}

// Valid reports whether v is one of the nine defined logic values.
func (v Value) Valid() bool { return v < NumValues }

// Parse converts a character into a Value. It accepts upper- and lower-case
// forms of the standard names.
func Parse(c byte) (Value, error) {
	switch c {
	case 'U', 'u':
		return U, nil
	case 'X', 'x':
		return X, nil
	case '0':
		return Zero, nil
	case '1':
		return One, nil
	case 'Z', 'z':
		return Z, nil
	case 'W', 'w':
		return W, nil
	case 'L', 'l':
		return L, nil
	case 'H', 'h':
		return H, nil
	case '-':
		return DontCare, nil
	}
	return U, fmt.Errorf("logic: invalid value character %q", c)
}

// FromBool converts a Go bool into a strong logic level.
func FromBool(b bool) Value {
	if b {
		return One
	}
	return Zero
}

// IsHigh reports whether v is driven high (strongly or weakly).
func (v Value) IsHigh() bool { return v == One || v == H }

// IsLow reports whether v is driven low (strongly or weakly).
func (v Value) IsLow() bool { return v == Zero || v == L }

// Known reports whether v is a driven 0/1 level (possibly weak).
func (v Value) Known() bool { return v.IsHigh() || v.IsLow() }

// Bool converts a known value to a Go bool. The second result is false when
// the value is not a driven 0/1 level.
func (v Value) Bool() (bool, bool) {
	switch {
	case v.IsHigh():
		return true, true
	case v.IsLow():
		return false, true
	}
	return false, false
}

// To01 projects v onto the strong two-valued subset {0,1}; everything that
// is not driven resolves to X. This is the STD_LOGIC to_X01 conversion.
func (v Value) To01() Value {
	switch {
	case v.IsHigh():
		return One
	case v.IsLow():
		return Zero
	default:
		return X
	}
}

// To0 projects like To01 but maps non-driven values to Zero (to_01 with a
// zero default), used when a two-valued simulator needs total values.
func (v Value) To0() Value {
	if v.IsHigh() {
		return One
	}
	return Zero
}

// ToX01Z projects onto the four-valued subset {X,0,1,Z} (to_X01Z).
func (v Value) ToX01Z() Value {
	switch {
	case v.IsHigh():
		return One
	case v.IsLow():
		return Zero
	case v == Z:
		return Z
	default:
		return X
	}
}

// System selects how many of the nine values a simulation run uses. The
// simulators always compute in the 9-valued algebra; a System is a
// projection applied to stimulus so that reduced-system runs remain closed
// over the projected domain.
type System uint8

// Supported value systems.
const (
	TwoValued  System = 2 // {0,1}
	FourValued System = 4 // {X,0,1,Z}
	NineValued System = 9 // full STD_LOGIC
)

// Project maps v into the system's domain.
func (s System) Project(v Value) Value {
	switch s {
	case TwoValued:
		return v.To0()
	case FourValued:
		return v.ToX01Z()
	default:
		return v
	}
}

// String names the system ("2-valued", ...).
func (s System) String() string {
	switch s {
	case TwoValued:
		return "2-valued"
	case FourValued:
		return "4-valued"
	case NineValued:
		return "9-valued"
	}
	return fmt.Sprintf("System(%d)", uint8(s))
}

// And returns the IEEE 1164 AND of a and b.
func And(a, b Value) Value { return andTable[a][b] }

// Or returns the IEEE 1164 OR of a and b.
func Or(a, b Value) Value { return orTable[a][b] }

// Xor returns the IEEE 1164 XOR of a and b.
func Xor(a, b Value) Value { return xorTable[a][b] }

// Not returns the IEEE 1164 complement of a.
func Not(a Value) Value { return notTable[a] }

// Nand returns Not(And(a, b)).
func Nand(a, b Value) Value { return notTable[andTable[a][b]] }

// Nor returns Not(Or(a, b)).
func Nor(a, b Value) Value { return notTable[orTable[a][b]] }

// Xnor returns Not(Xor(a, b)).
func Xnor(a, b Value) Value { return notTable[xorTable[a][b]] }

// Buf returns the buffered (strength-normalized) value of a: weak levels
// are promoted to strong levels and undriven inputs become X, exactly as a
// buffer re-drives its input.
func (v Value) Buf() Value { return v.To01() }

// AndN folds And over vs; the AND of no inputs is One (identity).
func AndN(vs ...Value) Value {
	acc := One
	for _, v := range vs {
		acc = andTable[acc][v]
	}
	return acc
}

// OrN folds Or over vs; the OR of no inputs is Zero (identity).
func OrN(vs ...Value) Value {
	acc := Zero
	for _, v := range vs {
		acc = orTable[acc][v]
	}
	return acc
}

// XorN folds Xor over vs; the XOR of no inputs is Zero (identity).
func XorN(vs ...Value) Value {
	acc := Zero
	for _, v := range vs {
		acc = xorTable[acc][v]
	}
	return acc
}

// Resolve combines two simultaneous drivers of one net using the IEEE 1164
// resolution function (stronger drive wins; conflicting strong drives give
// X; conflicting weak drives give W).
func Resolve(a, b Value) Value { return resolutionTable[a][b] }

// ResolveN resolves an arbitrary number of drivers; a net with no drivers
// floats at Z.
func ResolveN(vs ...Value) Value {
	acc := Z
	for _, v := range vs {
		acc = resolutionTable[acc][v]
	}
	return acc
}

// RisingEdge reports whether the transition prev -> cur is a rising edge in
// the STD_LOGIC sense: the previous value was low (or unknown-but-not-high)
// and the new value is high. Only 0/L -> 1/H counts; transitions through X
// are not edges, which keeps flip-flops conservative under unknowns.
func RisingEdge(prev, cur Value) bool { return prev.IsLow() && cur.IsHigh() }
