package query

import "mpcquery/internal/relation"

// Catalog is the schema the frontend compiles against: relation name →
// arity. The compiler only needs arities; binding actual relation data
// happens at execution time (Compiled.Run), so a service can compile
// and cache plans without holding the data lock.
type Catalog struct {
	arity map[string]int
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{arity: map[string]int{}}
}

// Add registers (or replaces) a relation's arity.
func (c *Catalog) Add(name string, arity int) {
	c.arity[name] = arity
}

// Arity looks up a relation's arity.
func (c *Catalog) Arity(name string) (int, bool) {
	a, ok := c.arity[name]
	return a, ok
}

// CatalogOf builds a catalog from a set of named relations.
func CatalogOf(rels map[string]*relation.Relation) *Catalog {
	c := NewCatalog()
	for name, r := range rels {
		c.Add(name, r.Arity())
	}
	return c
}
