package obs

import (
	"encoding/json"
	"fmt"
)

// Only cache.go's digest is held to the value codec.
func export(v any) ([]byte, error) { return json.Marshal(v) }

func pad(x float64) string {
	return fmt.Sprintf("%-*.2f|%d", 8, x, 1) // want `format "%-\*\.2f\|%d"`
}
