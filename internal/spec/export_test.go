package spec

// Inline reports whether a message of s is all inside the struct, with
// no out-of-line block.
func Inline(s *Spec) bool { return s.wideWords == 0 }
