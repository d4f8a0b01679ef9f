package sim

// FreeList recycles the objects of one type that a layer hands out once per
// frame — messages, frames, grants, transmissions — so that a warm
// simulation allocates none of them. It is the one hand-back rule: whoever
// supplied an object Puts it back when the object's last reader is done
// (for a frame: when Sent hands it back), and nothing may keep a pointer to
// it after that.
//
// The zero value is an empty list that makes objects with new(T) and zeroes
// them on Put. Once warm, Get and Put allocate nothing.
type FreeList[T any] struct {
	// New makes an object when the list is empty; nil means new(T). It is
	// where an object binds what it keeps for life (an event's callback).
	New func() *T
	// Reset poisons an object handed back: a read that outlives it must
	// find sentinels, not another frame's data. Nil zeroes the object.
	Reset func(*T)

	items []*T
}

// Get takes the most recently Put object off the list, or makes one.
func (l *FreeList[T]) Get() *T {
	if n := len(l.items) - 1; n >= 0 {
		x := l.items[n]
		l.items = l.items[:n]
		return x
	}
	if l.New != nil {
		return l.New()
	}
	return new(T)
}

// Put poisons x and keeps it for a later Get.
func (l *FreeList[T]) Put(x *T) {
	if l.Reset != nil {
		l.Reset(x)
	} else {
		var zero T
		*x = zero
	}
	l.items = append(l.items, x)
}
