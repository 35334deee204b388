package cluster

import "errors"

// Local is an in-process deployment on loopback: a manager, the workers
// registered with it in index order, and a client holding the key. Tests,
// examples and the experiment harness stand their clusters up through it.
type Local struct {
	Manager *Manager
	Workers []*Worker
	Addrs   []string // Workers[i].Addr(), the order the manager lists them in
	Client  *Client
}

// StartLocal starts a manager and n workers on free loopback ports and
// registers the workers. config supplies node i's WorkerConfig — its own
// DiskDir, a Policy instance of its own — and StartLocal fills in the key. If
// a node fails to start, the ones before it are closed again.
func StartLocal(privateKey string, n int, config func(i int) WorkerConfig) (*Local, error) {
	mgr, err := NewManager("127.0.0.1:0", privateKey)
	if err != nil {
		return nil, err
	}
	l := &Local{Manager: mgr, Client: NewClient(mgr.Addr(), privateKey)}
	for i := 0; i < n; i++ {
		cfg := config(i)
		cfg.PrivateKey = privateKey
		w, err := NewWorker("127.0.0.1:0", cfg)
		if err == nil {
			l.Workers = append(l.Workers, w)
			l.Addrs = append(l.Addrs, w.Addr())
			_, err = l.Client.RegisterWorker(w.Addr())
		}
		if err != nil {
			_ = l.Close() // report why the deployment did not start, not the clean-up
			return nil, err
		}
	}
	return l, nil
}

// Close stops the workers, then the manager. Data on the workers' drives
// stays (Worker.Pool().Array().RemoveAll deletes it).
func (l *Local) Close() error {
	var errs []error
	for _, w := range l.Workers {
		errs = append(errs, w.Close())
	}
	return errors.Join(append(errs, l.Manager.Close())...)
}
