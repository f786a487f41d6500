package graph

// Interner maps strings to dense uint32 identifiers and back. The zero
// value is not ready to use; call NewInterner. Identifiers are assigned
// in first-seen order starting at 0, so they can index slices directly.
type Interner struct {
	ids   map[string]uint32
	names []string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]uint32)}
}

// Intern returns the identifier for s, assigning a new one if s has not
// been seen before.
func (in *Interner) Intern(s string) uint32 {
	if id, ok := in.ids[s]; ok {
		return id
	}
	id := uint32(len(in.names))
	in.ids[s] = id
	in.names = append(in.names, s)
	return id
}

// InternBytes is Intern of string(b), and allocates only when it
// assigns a new identifier.
func (in *Interner) InternBytes(b []byte) uint32 {
	if id, ok := in.ids[string(b)]; ok {
		return id
	}
	return in.Intern(string(b))
}

// Lookup returns the identifier for s and whether s has been interned.
// Unlike Intern it never assigns a new identifier.
func (in *Interner) Lookup(s string) (uint32, bool) {
	id, ok := in.ids[s]
	return id, ok
}

// Name returns the string for identifier id. It panics if id was never
// assigned, mirroring out-of-range slice access.
func (in *Interner) Name(id uint32) string { return in.names[id] }

// Len reports how many distinct strings have been interned.
func (in *Interner) Len() int { return len(in.names) }

// Names returns the interned strings in identifier order. The returned
// slice is shared; callers must not modify it.
func (in *Interner) Names() []string { return in.names }
