package main

import (
	"strings"
	"testing"
)

func TestCheckExp(t *testing.T) {
	for _, name := range experiments {
		if err := checkExp(name); err != nil {
			t.Errorf("checkExp(%q) = %v, want nil", name, err)
		}
	}
	// The retired serving experiments and typos must fail loudly, naming
	// every valid experiment, instead of silently running nothing.
	for _, name := range []string{"server", "execute", "fig9", ""} {
		err := checkExp(name)
		if err == nil {
			t.Fatalf("checkExp(%q) = nil, want an error", name)
		}
		for _, valid := range experiments {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("checkExp(%q) error %q does not list %q", name, err, valid)
			}
		}
	}
}
