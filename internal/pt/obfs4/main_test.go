package obfs4

import (
	"testing"

	"ptperf/internal/testkit"
)

func TestMain(m *testing.M) { testkit.Main(m, "obfs4") }
