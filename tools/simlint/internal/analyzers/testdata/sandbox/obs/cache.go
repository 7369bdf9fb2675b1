// Package obs digests cells with the value codec and renders numbers
// through plot.AppendFixed.
package obs

import (
	"encoding/json" // want `import of "encoding/json" in sandbox/obs: the layering row "encoding/json" of obs/cache\.go`
	"fmt"
)

func digest(v any) []byte {
	b, _ := json.Marshal(v)
	return b
}

func render(x float64) string {
	return fmt.Sprintf("%d cells, %.3f s", 1, x) // want `format "%d cells, %\.3f s" in sandbox/obs`
}
