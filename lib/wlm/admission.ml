type 'a item = {
  deadline : float;  (* latency-SLO deadline; [infinity] = no deadline *)
  seq : int;
  payload : 'a;
}

type 'a t = {
  capacity : int;
  mutable items : 'a item list;  (* sorted: earliest deadline, then FIFO *)
  mutable next_seq : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Admission.create: capacity < 0";
  { capacity; items = []; next_seq = 0 }

let length t = List.length t.items
let exists t pred = List.exists (fun x -> pred x.payload) t.items

(* Earliest-deadline-first: a statement whose SLO clock is running out
   overtakes everything with more slack.  Deadline ties (in particular the
   deadline-free [infinity] case, which makes the queue plain FIFO) fall
   back to submission order. *)
let before a b =
  a.deadline < b.deadline || (a.deadline = b.deadline && a.seq < b.seq)

let offer ?(deadline = infinity) t payload =
  if length t >= t.capacity then false
  else begin
    let item = { deadline; seq = t.next_seq; payload } in
    t.next_seq <- t.next_seq + 1;
    let rec insert = function
      | [] -> [ item ]
      | x :: rest -> if before item x then item :: x :: rest else x :: insert rest
    in
    t.items <- insert t.items;
    true
  end

(* Best-ranked item the caller can actually start (per-tenant in-flight
   caps, broker floors): the queue order is preserved for everything
   skipped, so an ineligible head does not stall distinct tenants behind
   it (no head-of-line blocking across tenants). *)
let take_if t pred =
  let rec go acc = function
    | [] -> None
    | x :: rest ->
      if pred x.payload then begin
        t.items <- List.rev_append acc rest;
        Some x.payload
      end
      else go (x :: acc) rest
  in
  go [] t.items
