//go:build refill_nommap || !(linux || darwin)

package event

// The portable Open reads the whole file at open, so a later truncation
// cannot reach ReadSpan.
func init() { readsThroughFile = false }
