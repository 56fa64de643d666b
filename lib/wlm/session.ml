module Dispatcher = Mqr_core.Dispatcher
module Query = Mqr_sql.Query

type slo = Interactive | Batch

let slo_to_string = function
  | Interactive -> "interactive"
  | Batch -> "batch"

type status =
  | Queued
  | Running
  | Done of Dispatcher.report
  | Failed of string
  | Cancelled
  | Shed

let status_to_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Done _ -> "done"
  | Failed _ -> "failed"
  | Cancelled -> "cancelled"
  | Shed -> "shed"

type stmt = {
  stmt_id : int;
  stmt_label : string;
  stmt_sql : string;
  stmt_mode : Dispatcher.mode;
  stmt_slo : slo;
  stmt_tenant : string;
  stmt_session : int;
  stmt_arrival_ms : float;
  stmt_deadline_ms : float;
  stmt_temp_prefix : string;
  mutable stmt_status : status;
  mutable stmt_query : Query.t option;
  mutable stmt_run : Dispatcher.run option;
  mutable stmt_progress : Mqr_obs.Progress.t option;
  mutable stmt_admit_ms : float;
  mutable stmt_finish_ms : float;
}

let stmt_finished s =
  match s.stmt_status with
  | Done _ | Failed _ | Cancelled | Shed -> true
  | Queued | Running -> false

type hooks = {
  h_alloc_id : unit -> int;
  h_submit : stmt -> unit;
  h_cancel : stmt -> unit;
}

type t = {
  s_id : int;
  s_tenant : string;
  s_slo : slo;
  s_target_ms : float;
  hooks : hooks;
  mutable s_stmts : stmt list;  (* newest first *)
  mutable s_closed : bool;
}

let create ~hooks ~id ~tenant ~slo ~target_ms =
  { s_id = id; s_tenant = tenant; s_slo = slo; s_target_ms = target_ms;
    hooks; s_stmts = []; s_closed = false }

let id t = t.s_id
let tenant t = t.s_tenant
let slo t = t.s_slo
let statements t = List.rev t.s_stmts
let closed t = t.s_closed

(* Temp-table names must stay within identifier characters whatever the
   tenant calls itself. *)
let sanitize name =
  String.map
    (fun c ->
       match c with
       | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
       | _ -> '_')
    name

let submit ?(label = "") ?(mode = Dispatcher.Full) ?(arrival_ms = 0.0) t sql =
  if t.s_closed then invalid_arg "Session.submit: session is closed";
  let stmt_id = t.hooks.h_alloc_id () in
  let label = if label = "" then Printf.sprintf "q%d" stmt_id else label in
  let stmt =
    { stmt_id;
      stmt_label = label;
      stmt_sql = sql;
      stmt_mode = mode;
      stmt_slo = t.s_slo;
      stmt_tenant = t.s_tenant;
      stmt_session = t.s_id;
      stmt_arrival_ms = arrival_ms;
      (* the statement's SLO clock starts at arrival: its deadline is what
         EDF admission orders by *)
      stmt_deadline_ms = arrival_ms +. t.s_target_ms;
      (* per-tenant temp namespace: two tenants' intermediate results can
         never collide in the shared catalog *)
      stmt_temp_prefix =
        Printf.sprintf "_%s_s%d_q%d" (sanitize t.s_tenant) t.s_id stmt_id;
      stmt_status = Queued;
      stmt_query = None;
      stmt_run = None;
      stmt_progress = None;
      stmt_admit_ms = 0.0;
      stmt_finish_ms = 0.0 }
  in
  t.s_stmts <- stmt :: t.s_stmts;
  t.hooks.h_submit stmt;
  stmt_id

let find t stmt_id = List.find_opt (fun s -> s.stmt_id = stmt_id) t.s_stmts

let poll t stmt_id =
  match find t stmt_id with
  | Some s -> s.stmt_status
  | None -> invalid_arg "Session.poll: unknown statement"

let result t stmt_id =
  match poll t stmt_id with
  | Done report -> Some report
  | _ -> None

let cancel t stmt_id =
  match find t stmt_id with
  | None -> false
  | Some s ->
    if stmt_finished s then false
    else begin
      t.hooks.h_cancel s;
      true
    end

let close t =
  if not t.s_closed then begin
    t.s_closed <- true;
    List.iter
      (fun s -> if not (stmt_finished s) then t.hooks.h_cancel s)
      t.s_stmts
  end
