type 'a t = { m : Mutex.t; c : Condition.t; mutable v : 'a option }

let create () = { m = Mutex.create (); c = Condition.create (); v = None }

let fill t v =
  Mutex.lock t.m;
  t.v <- Some v;
  Condition.broadcast t.c;
  Mutex.unlock t.m

let read t =
  Mutex.lock t.m;
  while t.v = None do
    Condition.wait t.c t.m
  done;
  let v = Option.get t.v in
  Mutex.unlock t.m;
  v
