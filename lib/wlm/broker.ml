type tenant = {
  mutable tn_weight : int;
  mutable tn_active : bool;  (* has admitted-but-unfinished work *)
  mutable tn_peak : int;
  mutable tn_waits : int;    (* lease calls clipped by other tenants' floors *)
}

(* One live lease: its pages and the tenant it was granted under. *)
type lease = { pages : int; owner : string option }

type t = {
  budget : int;
  floor : int;
  max_concurrency : int;
  leases : (int, lease) Hashtbl.t;  (* lease id -> lease *)
  tenants : (string, tenant) Hashtbl.t;
  mutable pending : int;
  mutable peak : int;
  mutable grants : int;
  mutable reclaimed : int;
}

let create ~budget_pages ~max_concurrency =
  if budget_pages < 1 then invalid_arg "Broker.create: budget_pages < 1";
  if max_concurrency < 1 then invalid_arg "Broker.create: max_concurrency < 1";
  { budget = budget_pages;
    floor = max 1 (budget_pages / max_concurrency);
    max_concurrency;
    leases = Hashtbl.create 8;
    tenants = Hashtbl.create 4;
    pending = 0;
    peak = 0;
    grants = 0;
    reclaimed = 0 }

let budget_pages t = t.budget
let floor_pages t = t.floor

let total_leased t = Hashtbl.fold (fun _ l acc -> acc + l.pages) t.leases 0

let free_pages t = t.budget - total_leased t

let outstanding t = Hashtbl.length t.leases

let lease_of t ~id =
  match Hashtbl.find_opt t.leases id with Some l -> l.pages | None -> 0

let set_pending t n = t.pending <- max 0 n

(* --- per-tenant fair shares ------------------------------------------- *)

let register_tenant t ~weight name =
  if weight < 1 then invalid_arg "Broker.register_tenant: weight < 1";
  match Hashtbl.find_opt t.tenants name with
  | Some tn -> tn.tn_weight <- weight
  | None ->
    Hashtbl.replace t.tenants name
      { tn_weight = weight; tn_active = false; tn_peak = 0; tn_waits = 0 }

let tenant_of t name = Hashtbl.find_opt t.tenants name

let total_weight t =
  Hashtbl.fold (fun _ tn acc -> acc + tn.tn_weight) t.tenants 0

(* A tenant's fair share of the budget, by registered weight.  This is the
   floor reserved for it while it has admitted work: other tenants can use
   the pages only when the owner is idle (work-conserving), but an active
   tenant always finds at least its share un-leasable by anyone else. *)
let tenant_share t name =
  match tenant_of t name with
  | None -> 0
  | Some tn ->
    let tw = total_weight t in
    if tw = 0 then 0 else t.budget * tn.tn_weight / tw

let set_tenant_active t name active =
  match tenant_of t name with
  | Some tn -> tn.tn_active <- active
  | None -> ()

(* Summed from the live leases, one per running query, so a tenant's
   pages are never stored twice. *)
let tenant_leased t name =
  if Hashtbl.mem t.tenants name then
    Hashtbl.fold
      (fun _ l acc -> if l.owner = Some name then acc + l.pages else acc)
      t.leases 0
  else 0

let tenant_peak t name =
  match tenant_of t name with Some tn -> tn.tn_peak | None -> 0

let tenant_floor_waits t name =
  match tenant_of t name with Some tn -> tn.tn_waits | None -> 0

(* Pages held in reserve for *other* active tenants that are below their
   fair share.  [asker = None] means an anonymous (non-tenant) lease,
   which must respect every active tenant's floor. *)
let reserved_for_others t asker =
  Hashtbl.fold
    (fun name tn acc ->
      if tn.tn_active && Some name <> asker then
        acc + max 0 (tenant_share t name - tenant_leased t name)
      else acc)
    t.tenants 0

let lease ?tenant t ~id ~min_pages ~max_pages =
  if min_pages < 0 || max_pages < min_pages then
    invalid_arg "Broker.lease: bad demand";
  let current = lease_of t ~id in
  (* the query's own lease is free to itself: a re-negotiation can only
     take what nobody else holds *)
  let others = outstanding t - (if Hashtbl.mem t.leases id then 1 else 0) in
  (* keep the admission floor in reserve for pending queries that could
     still occupy an open slot — one greedy lease must not serialize the
     rest of the batch behind it *)
  let open_slots = max 0 (t.max_concurrency - others - 1) in
  let reserved = t.floor * min t.pending open_slots in
  (* additionally keep every other active tenant's unfilled fair share in
     reserve — a batch tenant's hash joins cannot lease into the pages an
     interactive tenant is entitled to *)
  let reserved_tenants = reserved_for_others t tenant in
  let available = max 0 (free_pages t + current - reserved - reserved_tenants) in
  let granted = min max_pages available in
  let granted = if granted < min_pages then min min_pages available else granted in
  let granted = max 0 granted in
  if granted < current then t.reclaimed <- t.reclaimed + (current - granted);
  Hashtbl.replace t.leases id { pages = granted; owner = tenant };
  (match tenant with
   | Some name ->
     (match tenant_of t name with
      | Some tn ->
        if granted < max_pages && reserved_tenants > 0 then
          tn.tn_waits <- tn.tn_waits + 1;
        tn.tn_peak <- max tn.tn_peak (tenant_leased t name)
      | None -> ())
   | None -> ());
  t.grants <- t.grants + 1;
  t.peak <- max t.peak (total_leased t);
  granted

let release t ~id =
  t.reclaimed <- t.reclaimed + lease_of t ~id;
  Hashtbl.remove t.leases id

(* Admission check from a tenant's point of view: pages reserved for
   *other* tenants do not count as free, but the asker's own reserved
   share does — an active tenant below its share can always admit,
   no matter how much the others have leased. *)
let can_admit_tenant t name =
  let free = free_pages t in
  free - reserved_for_others t (Some name) >= t.floor
  || tenant_share t name - tenant_leased t name >= t.floor

let peak_leased t = t.peak
let grants t = t.grants
let reclaimed_pages t = t.reclaimed
