package flow

import "testing"

// TestTableLookupGrowsNothing: Get of an ID past the table's end, the
// released sentinel included, finds the zero entry and leaves the table as
// it was; At grows it to exactly id+1 entries in one step and keeps what it
// held; At of the released sentinel panics instead of asking for 2³²
// entries.
func TestTableLookupGrowsNothing(t *testing.T) {
	var tab Table[*int]
	for _, id := range []ID{0, 1, 7, ^ID(0)} {
		if tab.Get(id) != nil || len(tab.Rows()) != 0 {
			t.Fatalf("Get(%d) on an empty table found %v, left %d rows", id, tab.Get(id), len(tab.Rows()))
		}
	}
	v := 3
	*tab.At(3) = &v
	if len(tab.Rows()) != 4 || cap(tab.Rows()) > 8 || tab.Get(3) != &v {
		t.Fatalf("At(3) left %d rows (cap %d), entry %v", len(tab.Rows()), cap(tab.Rows()), tab.Get(3))
	}
	*tab.At(1) = &v
	if len(tab.Rows()) != 4 {
		t.Fatalf("At of a held ID grew the table to %d rows", len(tab.Rows()))
	}
	*tab.At(9) = nil
	if len(tab.Rows()) != 10 || tab.Get(3) != &v || tab.Get(1) != &v || tab.Get(2) != nil {
		t.Fatalf("At(9) lost entries: %v", tab.Rows())
	}
	if tab.Get(^ID(0)) != nil || len(tab.Rows()) != 10 {
		t.Fatal("a lookup of the released sentinel found state or grew the table")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("At of the released sentinel did not panic")
		}
	}()
	tab.At(^ID(0))
}
