package netem

// A world package may not recover: the panic it catches may be the one
// that ends the world.
func swallows(fn func()) (err any) {
	defer func() {
		err = recover() // want `recover\(\) in world package sandbox/netem.*dead world.*\[norecover\]`
	}()
	fn()
	return nil
}

type ended struct{}

// The coroutine root is where the sentinel stops: the directive records
// why, and anything else is re-raised.
func root(fn func()) {
	defer func() {
		//simlint:allow norecover -- sandbox fixture: the coroutine root recovers the shutdown sentinel and re-raises the rest
		if p := recover(); p != nil {
			if _, ok := p.(ended); !ok {
				panic(p)
			}
		}
	}()
	fn()
}
