type safety_costs = {
  boundary_check : int;
  iomem_check : int;
  guard_page : int;
  running_flag : int;
  ownership_check : int;
  slab_fit_check : int;
}

type costs = {
  syscall : int;
  user_copy_bpc : int;
  memcpy_bpc : int;
  context_switch : int;
  fd_lookup : int;
  path_component : int;
  path_component_fast : int;
  open_misc : int;
  fault_entry : int;
  map_page : int;
  mmap_per_page : int;
  unmap_page : int;
  fork_base : int;
  fork_per_page : int;
  exec_base : int;
  exit_base : int;
  pipe_op : int;
  unix_op : int;
  wakeup : int;
  tcp_tx_segment : int;
  tcp_rx_segment : int;
  tcp_rx_small : int;
  tcp_rx_small_bpc : int;
  tcp_rx_bpc : int;
  tcp_small_write : int;
  tcp_conn_setup : int;
  udp_packet : int;
  loopback_delivery : int;
  net_wake : int;
  blk_issue : int;
  blk_us_per_op : float;
  blk_us_per_desc : float;
  blk_dev_bpc : float;
  net_us_per_pkt : float;
  net_us_per_kick : float;
  net_us_per_desc : float;
  net_dev_bpc : float;
  mmio_access : int;
  doorbell : int;
  irq_entry : int;
  softirq : int;
  dma_map : int;
  dma_unmap : int;
  iotlb_hit : int;
  iotlb_miss : int;
  alloc_frame : int;
  kmalloc : int;
  stat_fill : int;
  fs_new_page : int;
  page_drop : int;
  zero_fill_bpc : int;
  sched_pick : int;
  timer_program : int;
  safety : safety_costs;
}

type t = {
  name : string;
  iommu : bool;
  dma_pooling : bool;
  blk_pooling_complete : bool;
  blk_batching : bool;
  blk_readahead : bool;
  ext2_journal : bool;
  net_tx_batching : bool;
  net_irq_coalesce : bool;
  tcp_congestion_control : bool;
  rcu_walk : bool;
  sendfile_zero_copy : bool;
  unix_double_copy : bool;
  ipc_buffer : int;
  costs : costs;
}

(* Safety-check charges follow Table 8 of the paper (cycles). *)
let ostd_safety =
  {
    boundary_check = 3;
    iomem_check = 170;
    guard_page = 25;
    running_flag = 1;
    ownership_check = 12;
    slab_fit_check = 1;
  }

let no_safety =
  {
    boundary_check = 0;
    iomem_check = 0;
    guard_page = 0;
    running_flag = 0;
    ownership_check = 0;
    slab_fit_check = 0;
  }

(* Cycle constants calibrated so the Linux profile lands near the paper's
   Linux column on an i7-10700 at ~3 GHz (Table 7). The NIC computes and
   verifies checksums (the only modelled path), so the TCP segment
   constants carry no software-checksum share: TX excludes it and the
   RX per-byte pass runs at the device-verified rate. *)
let linux_costs =
  {
    syscall = 150;
    user_copy_bpc = 10;
    memcpy_bpc = 6;
    context_switch = 900;
    fd_lookup = 40;
    path_component = 450;
    path_component_fast = 190;
    open_misc = 1250;
    fault_entry = 30;
    map_page = 45;
    mmap_per_page = 52;
    unmap_page = 70;
    fork_base = 64000;
    fork_per_page = 140;
    exec_base = 450000;
    exit_base = 12000;
    pipe_op = 420;
    unix_op = 1200;
    wakeup = 350;
    tcp_tx_segment = 1300;
    tcp_rx_segment = 2300;
    tcp_rx_small = 150;
    tcp_rx_small_bpc = 8;
    tcp_rx_bpc = 32;
    tcp_small_write = 600;
    tcp_conn_setup = 5200;
    udp_packet = 1500;
    loopback_delivery = 500;
    net_wake = 4400;
    blk_issue = 1400;
    blk_us_per_op = 2.5;
    blk_us_per_desc = 0.35;
    blk_dev_bpc = 0.7;
    net_us_per_pkt = 3.8;
    net_us_per_kick = 0.3;
    net_us_per_desc = 0.15;
    net_dev_bpc = 0.38;
    mmio_access = 10818;
    doorbell = 2500;
    irq_entry = 600;
    softirq = 300;
    dma_map = 900;
    dma_unmap = 1400;
    iotlb_hit = 6;
    iotlb_miss = 250;
    alloc_frame = 150;
    kmalloc = 147;
    stat_fill = 450;
    fs_new_page = 1200;
    page_drop = 220;
    zero_fill_bpc = 16;
    sched_pick = 120;
    timer_program = 80;
    safety = no_safety;
  }

(* Asterinas constants: slightly costlier trap path (safe-Rust
   abstractions), a leaner network stack (smoltcp-style), and a simpler
   unix-socket/pipe fast path; the remaining deltas come from mechanism
   switches rather than constants. *)
let asterinas_costs =
  {
    linux_costs with
    syscall = 198;
    context_switch = 880;
    path_component = 380;
    open_misc = 1100;
    fault_entry = 15;
    map_page = 40;
    mmap_per_page = 45;
    fork_base = 60000;
    fork_per_page = 134;
    exec_base = 380000;
    pipe_op = 430;
    unix_op = 1100;
    tcp_tx_segment = 450;
    tcp_rx_segment = 500;
    tcp_small_write = 200;
    tcp_conn_setup = 900;
    udp_packet = 700;
    loopback_delivery = 300;
    net_wake = 1200;
    blk_issue = 1550;
    irq_entry = 650;
    alloc_frame = 150;
    kmalloc = 147;
    stat_fill = 320;
    safety = ostd_safety;
  }

let linux =
  {
    name = "linux";
    iommu = false;
    dma_pooling = false;
    blk_pooling_complete = false;
    blk_batching = true;
    blk_readahead = true;
    ext2_journal = true;
    net_tx_batching = true;
    net_irq_coalesce = true;
    tcp_congestion_control = true;
    rcu_walk = true;
    sendfile_zero_copy = true;
    unix_double_copy = true;
    ipc_buffer = 64 * 1024;
    costs = linux_costs;
  }

let asterinas =
  {
    name = "asterinas";
    iommu = true;
    dma_pooling = true;
    blk_pooling_complete = false;
    blk_batching = true;
    blk_readahead = true;
    ext2_journal = true;
    net_tx_batching = true;
    net_irq_coalesce = true;
    tcp_congestion_control = false;
    rcu_walk = false;
    sendfile_zero_copy = true;
    unix_double_copy = false;
    ipc_buffer = 256 * 1024;
    costs = asterinas_costs;
  }

let asterinas_no_iommu = { asterinas with name = "asterinas-no-iommu"; iommu = false }

let with_safety_checks b t =
  { t with costs = { t.costs with safety = (if b then ostd_safety else no_safety) } }

let current = ref asterinas

let set p = current := p

let get () = !current
