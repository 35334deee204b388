// Package pinleak is pinleak analyzer testdata: Set/Page mirror the
// core.LocalitySet pin protocol (registered by the test), covering flagged
// and clean shapes.
package pinleak

import "errors"

type Page struct {
	Data []byte
}

func (p *Page) Bytes() []byte { return p.Data }
func (p *Page) Num() int64    { return 0 }

type Set struct{}

func (s *Set) Pin(num int64) (*Page, error)    { return &Page{}, nil }
func (s *Set) NewPage() (*Page, error)         { return &Page{}, nil }
func (s *Set) Unpin(p *Page, dirty bool) error { return nil }
func (s *Set) Retire(p *Page) error            { return nil }

func consume(p *Page) {}

var errBoom = errors.New("boom")

// --- clean shapes ---

func goodDeferred(s *Set) error {
	p, err := s.Pin(1)
	if err != nil {
		return err
	}
	defer s.Unpin(p, false)
	if len(p.Bytes()) == 0 {
		return errBoom
	}
	return nil
}

func goodExplicit(s *Set) error {
	p, err := s.NewPage()
	if err != nil {
		return err
	}
	copy(p.Bytes(), "hello")
	return s.Unpin(p, true)
}

func goodTransfer(s *Set) (*Page, error) {
	p, err := s.Pin(2)
	if err != nil {
		return nil, err
	}
	return p, nil // ownership moves to the caller
}

func goodHelper(s *Set) error {
	p, err := s.Pin(3)
	if err != nil {
		return err
	}
	consume(p) // ownership moves to the helper
	return nil
}

func goodBranches(s *Set, cold bool) error {
	p, err := s.Pin(4)
	if err != nil {
		return err
	}
	if cold {
		return s.Unpin(p, false)
	}
	return s.Unpin(p, true)
}

func goodErrEqNil(s *Set) {
	p, err := s.NewPage()
	if err == nil {
		consume(p)
	}
}

func goodClosureCapture(s *Set) (func(), error) {
	p, err := s.Pin(5)
	if err != nil {
		return nil, err
	}
	return func() { _ = s.Unpin(p, false) }, nil
}

func goodRetire(s *Set, once bool) error {
	p, err := s.Pin(6)
	if err != nil {
		return err
	}
	if len(p.Bytes()) == 0 {
		return s.Retire(p)
	}
	if once {
		return s.Retire(p) // the read-once release ends the pin like Unpin
	}
	return s.Unpin(p, false)
}

// --- flagged shapes ---

func badDiscard(s *Set) error {
	_, err := s.Pin(10) // want "pinned page is discarded"
	return err
}

func badEarlyReturn(s *Set, work func() error) error {
	p, err := s.Pin(11)
	if err != nil {
		return err
	}
	if err := work(); err != nil {
		return err // want "pinned page 'p' .* not unpinned on this return path"
	}
	return s.Unpin(p, false)
}

func badEarlyReturnBeforeRetire(s *Set, work func() error) error {
	p, err := s.Pin(14)
	if err != nil {
		return err
	}
	if err := work(); err != nil {
		return err // want "pinned page 'p' .* not unpinned on this return path"
	}
	return s.Retire(p)
}

func badScopeEnd(s *Set) {
	p, err := s.Pin(12) // want "pinned page 'p' goes out of scope without Unpin"
	if err != nil {
		return
	}
	_ = p.Num()
}

func badReusedErr(s *Set, work func() error) error {
	p, err := s.Pin(13)
	if err != nil {
		return err
	}
	err = work()
	if err != nil {
		return err // want "pinned page 'p' .* not unpinned on this return path"
	}
	return s.Unpin(p, true)
}

func badLoopContinue(s *Set, skip func(int64) bool) error {
	for i := int64(0); i < 8; i++ {
		p, err := s.Pin(i)
		if err != nil {
			return err
		}
		if skip(p.Num()) {
			continue // want "pinned page 'p' .* not unpinned before this continue"
		}
		if err := s.Unpin(p, false); err != nil {
			return err
		}
	}
	return nil
}

// --- suppression: the ignore directive must silence the early return ---

func suppressed(s *Set, work func() error) error {
	p, err := s.Pin(20)
	if err != nil {
		return err
	}
	if err := work(); err != nil {
		//lint:ignore pinleak the page is intentionally left pinned for the process lifetime in this shape
		return err
	}
	return s.Unpin(p, false)
}
