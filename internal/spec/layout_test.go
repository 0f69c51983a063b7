package spec_test

import (
	"testing"

	"camus/internal/formats"
	"camus/internal/spec"
)

// TestFormatSpecsInline: every application's spec, and ITCH merged with
// a one-field application, keeps its messages inside the 64-byte struct,
// with no out-of-line block to chase.
func TestFormatSpecsInline(t *testing.T) {
	merged, err := spec.Merge("itch+x", formats.ITCH, spec.MustParse("x", "header hx { k : u8 @field; }"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*spec.Spec{formats.ITCH, formats.INT, formats.Highway, formats.ILA, formats.HICN,
		formats.DNS, formats.Kafka, formats.NetBase, merged} {
		if !spec.Inline(s) {
			t.Errorf("%s: %d fields, %d headers: a message of it is not inline", s.Name, len(s.SubscribableFields()), len(s.Headers))
		}
	}
}
