package cell

// PinsIndexed reports whether Pin resolves names through the index — for
// the external tests, which cannot see the field.
func PinsIndexed(c *Cell) bool { return c.pinAt != nil }
