// Package stegotorus cuts covers: it reads only the ASCII its writer
// writes, in a fixed case.
package stegotorus

import (
	"bytes"
	"strings"
	"unicode/utf8" // want `import of "unicode/utf8" in sandbox/pt/stegotorus`
)

func cutCover(b []byte, s string) bool {
	return utf8.Valid(b) &&
		strings.EqualFold(s, "POST") && // want `a call of strings\.EqualFold`
		bytes.EqualFold(b, []byte("post")) // want `a call of bytes\.EqualFold`
}
