type 'a t = {
  rng : Rng.t;
  cap : int;
  mutable items : 'a array;
  mutable n : int;     (* filled slots *)
  mutable seen : int;
}

let create ?(rng = Rng.create 0x5eed) ~capacity () =
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
