package censor

import (
	"testing"

	"ptperf/internal/testkit"
)

func TestMain(m *testing.M) { testkit.Main(m, "censor") }
