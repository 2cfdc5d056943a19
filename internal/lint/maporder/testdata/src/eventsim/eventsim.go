// Package eventsim is a fixture stand-in for internal/eventsim: the
// analyzers match scheduling calls by package base and method name, so
// this skeleton exercises the same resolution path as the real engine.
package eventsim

type Time int64

type Event struct{}

type Handler interface{ OnEvent(arg any) }

type Engine struct{}

func (e *Engine) AtCall(t Time, h Handler, arg any) *Event            { return nil }
func (e *Engine) AfterCall(d Time, h Handler, arg any) *Event         { return nil }
func (e *Engine) ContinueCall(d Time, h Handler, arg any) *Event      { return nil }
func (e *Engine) ContinueFixedCall(d Time, h Handler, arg any) *Event { return nil }
