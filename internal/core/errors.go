package core

import (
	"errors"
	"fmt"
)

// ErrMaxSessionLength is returned by Params.Validate when MaxSessionLength
// exceeds 16: the kernel tags each candidate with a bit per distinct tail
// item and counts candidates in a table of 2^MaxSessionLength entries.
var ErrMaxSessionLength = errors.New("core: MaxSessionLength exceeds 16, the width of the kernel's head masks")

func errBadParam(name string, v int) error {
	return fmt.Errorf("core: parameter %s = %d is invalid", name, v)
}

func errKExceedsM(k, m int) error {
	return fmt.Errorf("core: K (%d) must not exceed M (%d): neighbours are drawn from the recency sample", k, m)
}

func errMExceedsCapacity(m, capacity int) error {
	return fmt.Errorf("core: M (%d) exceeds the index posting-list capacity (%d): rebuild the index with a larger capacity", m, capacity)
}
