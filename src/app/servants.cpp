#include "app/servants.hpp"

namespace eternal::app {

using cdr::Decoder;
using cdr::Writer;
using orb::InvokerContext;
using orb::Task;

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

Counter::Counter() {
  op("incr", [this](InvokerContext&, Decoder& in, Writer& out) {
    value_ += in.get_longlong();
    ++ops_;
    out.put_longlong(value_);
  });
  op("set", [this](InvokerContext&, Decoder& in, Writer&) {
    value_ = in.get_longlong();
    ++ops_;
  });
  read_op("get", [this](InvokerContext&, Decoder&, Writer& out) {
    out.put_longlong(value_);
  });
}

void Counter::get_state(Writer& out) const {
  out.put_longlong(value_);
  out.put_ulonglong(ops_);
}

void Counter::set_state(Decoder& in) {
  value_ = in.get_longlong();
  ops_ = in.get_ulonglong();
}

// ---------------------------------------------------------------------------
// Echo
// ---------------------------------------------------------------------------

Echo::Echo() {
  op("echo", [this](InvokerContext&, Decoder& in, Writer& out) {
    ++calls_;
    out.put_octet_seq(in.get_octet_seq());
  });
  read_op("ping", [](InvokerContext&, Decoder&, Writer&) {});
}

void Echo::get_state(Writer& out) const { out.put_ulonglong(calls_); }
void Echo::set_state(Decoder& in) { calls_ = in.get_ulonglong(); }

// ---------------------------------------------------------------------------
// Account
// ---------------------------------------------------------------------------

Account::Account() {
  op("deposit", [this](InvokerContext&, Decoder& in, Writer& out) {
    balance_ += in.get_longlong();
    out.put_longlong(balance_);
  });
  op("withdraw", [this](InvokerContext&, Decoder& in, Writer& out) {
    const std::int64_t amount = in.get_longlong();
    if (amount > balance_) {
      throw orb::SystemException("IDL:bank/NO_FUNDS:1.0", 0,
                                 orb::Completion::No);
    }
    balance_ -= amount;
    out.put_longlong(balance_);
  });
  read_op("balance", [this](InvokerContext&, Decoder&, Writer& out) {
    out.put_longlong(balance_);
  });
}

void Account::get_state(Writer& out) const { out.put_longlong(balance_); }
void Account::set_state(Decoder& in) { balance_ = in.get_longlong(); }

// ---------------------------------------------------------------------------
// Teller (nested operations)
// ---------------------------------------------------------------------------

Teller::Teller() {
  async_op("transfer", [this](InvokerContext& ctx, Decoder& in,
                              Writer& out) -> Task {
    const std::string from = in.get_string();
    const std::string to = in.get_string();
    const std::int64_t amount = in.get_longlong();

    Writer arg;
    arg.put_longlong(amount);
    // Withdraw first; NO_FUNDS propagates to the caller untouched.
    cdr::Bytes wres = co_await ctx.invoke(from, "withdraw", arg.written());
    cdr::Bytes dres = co_await ctx.invoke(to, "deposit", arg.written());

    ++transfers_;
    Decoder r(dres);
    out.put_longlong(r.get_longlong());  // destination balance
    co_return;
  });
  read_op("transfers", [this](InvokerContext&, Decoder&, Writer& out) {
    out.put_ulonglong(transfers_);
  });
}

void Teller::get_state(Writer& out) const { out.put_ulonglong(transfers_); }
void Teller::set_state(Decoder& in) { transfers_ = in.get_ulonglong(); }

// ---------------------------------------------------------------------------
// Inventory (the paper's automobile example)
// ---------------------------------------------------------------------------

Inventory::Inventory() {
  op("manufacture", [this](InvokerContext&, Decoder& in, Writer& out) {
    stock_ += in.get_longlong();
    out.put_longlong(stock_);
  });
  op("sell", [this](InvokerContext& ctx, Decoder&, Writer& out) {
    // The paper's inventory-update algorithm (Figure 8): a sale in the
    // primary component (or a normal unpartitioned sale) decrements stock
    // and issues the shipping order. A fulfillment replay of a sale made
    // in a disconnected showroom may find the car already sold: it then
    // raises a back order and a rush manufacturing order.
    if (!ctx.is_fulfillment()) {
      if (stock_ > 0) {
        --stock_;
        ++shipped_;
        out.put_string("shipped");
      } else {
        ++back_orders_;
        out.put_string("back-ordered");
      }
    } else {
      if (stock_ > 0) {
        --stock_;
        ++shipped_;
        out.put_string("shipped");
      } else {
        ++back_orders_;
        ++rush_orders_;
        out.put_string("rush-ordered");
      }
    }
  });
  read_op("stock", [this](InvokerContext&, Decoder&, Writer& out) {
    out.put_longlong(stock_);
  });
  read_op("report", [this](InvokerContext&, Decoder&, Writer& out) {
    out.put_longlong(stock_);
    out.put_longlong(shipped_);
    out.put_longlong(back_orders_);
    out.put_longlong(rush_orders_);
  });
}

void Inventory::get_state(Writer& out) const {
  out.put_longlong(stock_);
  out.put_longlong(shipped_);
  out.put_longlong(back_orders_);
  out.put_longlong(rush_orders_);
}

void Inventory::set_state(Decoder& in) {
  stock_ = in.get_longlong();
  shipped_ = in.get_longlong();
  back_orders_ = in.get_longlong();
  rush_orders_ = in.get_longlong();
}

// ---------------------------------------------------------------------------
// KvStore (incremental updates, large state)
// ---------------------------------------------------------------------------

KvStore::KvStore() {
  op("put", [this](InvokerContext&, Decoder& in, Writer&) {
    last_key_ = in.get_string();
    last_value_ = in.get_string();
    last_was_erase_ = false;
    data_[last_key_] = last_value_;
  });
  op("del", [this](InvokerContext&, Decoder& in, Writer& out) {
    last_key_ = in.get_string();
    last_value_.clear();
    last_was_erase_ = true;
    out.put_boolean(data_.erase(last_key_) > 0);
  });
  read_op("get", [this](InvokerContext&, Decoder& in, Writer& out) {
    auto it = data_.find(in.get_string());
    out.put_boolean(it != data_.end());
    out.put_string(it != data_.end() ? it->second : "");
  });
  read_op("size", [this](InvokerContext&, Decoder&, Writer& out) {
    out.put_ulonglong(data_.size());
  });
  op("fill", [this](InvokerContext&, Decoder& in, Writer&) {
    const std::uint64_t count = in.get_ulonglong();
    const std::uint64_t value_size = in.get_ulonglong();
    const std::string value(value_size, 'v');
    for (std::uint64_t i = 0; i < count; ++i) {
      data_["key" + std::to_string(i)] = value;
    }
    // A bulk fill is shipped as a full-state update.
    last_key_.clear();
    last_was_erase_ = false;
  });
}

void KvStore::get_state(Writer& out) const {
  out.put_ulonglong(data_.size());
  for (const auto& [k, v] : data_) {
    out.put_string(k);
    out.put_string(v);
  }
}

void KvStore::set_state(Decoder& in) {
  data_.clear();
  const std::uint64_t n = in.get_ulonglong();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string k = in.get_string();
    data_[k] = in.get_string();
  }
}

void KvStore::get_update(const std::string& op, Writer& out) const {
  if ((op == "put" || op == "del") && !last_key_.empty()) {
    out.put_boolean(true);  // incremental postimage
    out.put_string(last_key_);
    out.put_boolean(last_was_erase_);
    out.put_string(last_value_);
  } else {
    out.put_boolean(false);  // full state
    get_state(out);
  }
}

void KvStore::apply_update(const std::string&, Decoder& in) {
  if (in.get_boolean()) {
    const std::string key = in.get_string();
    const bool erase = in.get_boolean();
    std::string value = in.get_string();
    if (erase) {
      data_.erase(key);
    } else {
      data_[key] = std::move(value);
    }
  } else {
    set_state(in);
  }
}

// ---------------------------------------------------------------------------
// NondetProbe
// ---------------------------------------------------------------------------

NondetProbe::NondetProbe() {
  op("sample", [this](InvokerContext& ctx, Decoder&, Writer& out) {
    ++samples_;
    last_random_ = ctx.deterministic_random();
    out.put_ulonglong(ctx.logical_time());
    out.put_ulonglong(last_random_);
  });
}

void NondetProbe::get_state(Writer& out) const {
  out.put_ulonglong(samples_);
  out.put_ulonglong(last_random_);
}

void NondetProbe::set_state(Decoder& in) {
  samples_ = in.get_ulonglong();
  last_random_ = in.get_ulonglong();
}

}  // namespace eternal::app
