// Fixture for the shadow analyzer.
package shadowtest

func shadowed(xs []int) int {
	total := 0
	for _, x := range xs {
		if x > 0 {
			total := total + x // want `declaration of "total" shadows declaration at line`
			_ = total
		}
	}
	return total
}

// noShadow accumulates into the one variable: no finding.
func noShadow(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// errShadow is the idiomatic if err := pattern: exempted, no finding.
func errShadow(f func() error) error {
	err := f()
	if err := f(); err != nil {
		return err
	}
	return err
}
