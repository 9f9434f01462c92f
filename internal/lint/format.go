package lint

import (
	"fmt"
	"io"
)

// WriteText renders diagnostics in the classic file:line:col form, one per
// line.
func WriteText(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
	}
	return nil
}
