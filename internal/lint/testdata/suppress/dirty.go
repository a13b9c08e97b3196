// Package fixture exercises the //colsimlint:ignore directive.
package fixture

// ExactTie compares exactly but carries a trailing suppression.
func ExactTie(a, b float64) bool {
	return a == b //colsimlint:ignore floateq exact tie on copied values, not computed ones
}

// AboveLine carries the suppression on the line above.
func AboveLine(a, b float64) bool {
	//colsimlint:ignore floateq exact tie on copied values, not computed ones
	return a == b
}

// TrailingStaysOnItsLine carries a trailing suppression for its first
// comparison only, so the unrelated comparison on the next line is still
// reported.
func TrailingStaysOnItsLine(a, b float64) bool {
	same := a == b         //colsimlint:ignore floateq exact tie on copied values, not computed ones
	return same || a == -b // want "== between floats"
}

// WrongName suppresses a different analyzer, so the finding survives.
func WrongName(a, b float64) bool {
	return a == b //colsimlint:ignore maporder misdirected suppression // want "== between floats"
}

// Unsuppressed is the control.
func Unsuppressed(a, b float64) bool {
	return a == b // want "== between floats"
}
