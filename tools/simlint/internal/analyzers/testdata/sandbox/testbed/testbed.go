// Package testbed builds a world under the scenario it is handed; the
// harness resolves names.
package testbed

import "sandbox/censor"

func build(name string, sc *censor.Scenario) *censor.Scenario {
	if sc == nil {
		//simlint:allow layering -- not honored // want `layering may not be suppressed in package sandbox/testbed.*\[directive\]`
		sc, _ = censor.Lookup(name) // want `a call of censor\.Lookup in sandbox/testbed`
	}
	return sc
}
