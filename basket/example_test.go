package basket_test

import (
	"fmt"
	"sort"

	"repro/basket"
)

// A basket is an unordered set with per-inserter cells: inserts are
// synchronization-free across distinct ids, extraction drains in arbitrary
// order, and exhaustion closes the basket.
func ExampleScalable() {
	b := basket.New[string](basket.WithCapacity(4))
	b.Insert(0, "red")
	b.Insert(2, "blue")

	var got []string
	for {
		v, ok := b.Extract()
		if !ok {
			break
		}
		got = append(got, v)
	}
	sort.Strings(got)
	fmt.Println(got, b.Empty())
	// Output: [blue red] true
}

// The closing stack models the original baskets queue's basket: the first
// extraction closes it to further insertions, the property that makes the
// original queue linearizable.
func ExampleClosingStack() {
	b := basket.NewClosingStack[int]()
	b.Insert(0, 1)
	b.Insert(0, 2)
	v, _ := b.Extract()
	inserted := b.Insert(0, 3)
	fmt.Println(v, inserted)
	// Output: 2 false
}
