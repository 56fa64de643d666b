let default_seed = 0x5eed

type 'a t = {
  rng : Rng.t;
  cap : int;
  mutable items : 'a array;
  mutable n : int;     (* filled slots *)
  mutable seen : int;
}

let create ?(rng = Rng.create default_seed) ~capacity () =
  if capacity < 1 then invalid_arg "Reservoir.create: capacity < 1";
  { rng; cap = capacity; items = [||]; n = 0; seen = 0 }

let add t x =
  t.seen <- t.seen + 1;
  if t.n < t.cap then begin
    if t.n = Array.length t.items then begin
      let bigger = Array.make (max 8 (min t.cap (2 * max 1 t.n))) x in
      Array.blit t.items 0 bigger 0 t.n;
      t.items <- bigger
    end;
    t.items.(t.n) <- x;
    t.n <- t.n + 1
  end else begin
    let j = Rng.int t.rng t.seen in
    if j < t.cap then t.items.(j) <- x
  end

let seen t = t.seen
let sample t = Array.sub t.items 0 t.n

(* The draws of a default-seeded reservoir of one capacity: the [k]th add
   (1-based, [k > capacity]) draws [Rng.int rng k] whatever the value, so
   which slot it takes, if any, depends only on [k].  [hits] holds, in
   order, each [k] up to [drawn] whose draw landed in a slot, and
   [slots] that slot; both only grow. *)
type schedule = {
  draws : Rng.t;
  mutable drawn : int;
  mutable hits : int array;
  mutable slots : int array;
  mutable len : int;
}

let schedules : (int, schedule) Hashtbl.t = Hashtbl.create 4
let lock = Mutex.create ()

let schedule capacity =
  match Hashtbl.find_opt schedules capacity with
  | Some s -> s
  | None ->
    let s =
      { draws = Rng.create default_seed; drawn = capacity; hits = [||];
        slots = [||]; len = 0 }
    in
    Hashtbl.add schedules capacity s;
    s

let draw_up_to s ~capacity n =
  while s.drawn < n do
    let k = s.drawn + 1 in
    let j = Rng.int s.draws k in
    if j < capacity then begin
      if s.len = Array.length s.hits then begin
        let grow a = Array.append a (Array.make (max 64 s.len) 0) in
        s.hits <- grow s.hits;
        s.slots <- grow s.slots
      end;
      s.hits.(s.len) <- k;
      s.slots.(s.len) <- j;
      s.len <- s.len + 1
    end;
    s.drawn <- k
  done

let positions ~capacity n =
  if capacity < 1 then invalid_arg "Reservoir.positions: capacity < 1";
  let pos = Array.init (min n capacity) Fun.id in
  if n > capacity then
    Mutex.protect lock (fun () ->
        let s = schedule capacity in
        draw_up_to s ~capacity n;
        let i = ref 0 in
        while !i < s.len && s.hits.(!i) <= n do
          pos.(s.slots.(!i)) <- s.hits.(!i) - 1;
          incr i
        done);
  pos
