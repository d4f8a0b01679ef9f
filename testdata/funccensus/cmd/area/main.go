// Command area is the fixture's program.
package main

import (
	"fmt"

	"fixture/internal/shape"
)

func main() { fmt.Println(shape.New(2).Area()) }
