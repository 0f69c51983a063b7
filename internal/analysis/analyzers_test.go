package analysis

import "testing"

// Each analyzer is exercised against a fixture package of seeded
// violations under testdata/src (which go's wildcard patterns skip, so
// the seeded bugs never reach the build or the lint gate).

func TestLockSendAnalyzer(t *testing.T) {
	RunFixture(t, LockSendAnalyzer, "./testdata/src/locksend")
}

// TestSuiteCleanOnRepo asserts the tier-1 property directly: the whole
// module (tests included) carries zero findings.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	diags, err := Run(LoadConfig{Dir: "../..", Tests: true}, All(), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}
