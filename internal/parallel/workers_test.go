package parallel

import (
	"runtime"
	"testing"
)

func TestWorkers(t *testing.T) {
	cases := []struct {
		req, n, want int
	}{
		{4, 100, 4},
		{0, 100, runtime.GOMAXPROCS(0)},
		{-3, 100, runtime.GOMAXPROCS(0)},
		{8, 3, 3},
		{8, 0, 1},
	}
	for _, c := range cases {
		if got := Workers(c.req, c.n); got != c.want {
			t.Errorf("Workers(%d,%d) = %d, want %d", c.req, c.n, got, c.want)
		}
	}
}
