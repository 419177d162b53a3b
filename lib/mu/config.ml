type attach_mode = Standalone | Direct | Handover

type t = {
  n : int;
  log_slots : int;
  value_cap : int;
  attach : attach_mode;
  max_batch : int;
  max_outstanding : int;
  recycle_interval : int;
  recycle_slack : int;
  fate_sharing : bool;
  fate_sharing_stuck_after : int;
  disable_omit_prepare : bool;
  checksum_canary : bool;
  persistent_log : bool;
  durable_state : bool;
  queue_limit : int;
  doorbell : int;
  durable_ns : int;
}

let default =
  {
    n = 3;
    log_slots = 8192;
    value_cap = 1024;
    attach = Standalone;
    max_batch = 1;
    max_outstanding = 1;
    recycle_interval = 10_000_000;
    recycle_slack = 64;
    fate_sharing = false;
    fate_sharing_stuck_after = 10_000_000;
    disable_omit_prepare = false;
    checksum_canary = false;
    persistent_log = false;
    durable_state = false;
    queue_limit = 0;
    doorbell = 1;
    durable_ns = 0;
  }

let majority t = (t.n / 2) + 1

let validate t =
  if t.n < 1 then invalid_arg "Config: n must be >= 1";
  if t.log_slots < 2 * t.recycle_slack then invalid_arg "Config: log too small for slack";
  if t.value_cap <= 0 then invalid_arg "Config: value_cap must be positive";
  if t.max_batch < 1 then invalid_arg "Config: max_batch must be >= 1";
  if t.max_outstanding < 1 then invalid_arg "Config: max_outstanding must be >= 1";
  if t.queue_limit < 0 then invalid_arg "Config: queue_limit must be >= 0";
  if t.doorbell < 1 then invalid_arg "Config: doorbell must be >= 1";
  if t.doorbell > 1 && t.doorbell > t.log_slots - (2 * t.recycle_slack) then
    invalid_arg "Config: doorbell group cannot exceed usable log window";
  if t.durable_ns < 0 then invalid_arg "Config: durable_ns must be >= 0"
