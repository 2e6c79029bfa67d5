#include "ir/interp.hh"

namespace tapas::ir {

Interp::Interp(const Module &mod, MemImage &mem, Options opts)
    : mod(mod), mem(mem), opts(opts)
{}

RtValue
Interp::run(const Function &func, std::vector<RtValue> args)
{
    return runFunction(func, std::move(args), 1);
}

RtValue
Interp::evalOperand(const Frame &frame, const Value *v) const
{
    switch (v->valueKind()) {
      case Value::Kind::ConstantInt:
        return RtValue::fromInt(
            static_cast<const ConstantInt *>(v)->value());
      case Value::Kind::ConstantFloat:
        return RtValue::fromFloat(
            static_cast<const ConstantFloat *>(v)->value());
      case Value::Kind::Global:
        return RtValue::fromPtr(
            mem.addressOf(static_cast<const GlobalVar *>(v)));
      case Value::Kind::Argument: {
        auto *arg = static_cast<const Argument *>(v);
        tapas_assert(arg->parent() == frame.func,
                     "argument of a different function");
        return frame.args[arg->index()];
      }
      case Value::Kind::Instruction: {
        auto *inst = static_cast<const Instruction *>(v);
        return frame.regs[inst->id()];
      }
      default:
        tapas_panic("unexpected operand kind");
    }
}

RtValue
Interp::execLoad(const LoadInst *ld, uint64_t addr) const
{
    Type t = ld->type();
    if (t.isFloat()) {
        return RtValue::fromFloat(
            t.bits() == 32 ? mem.loadF32(addr) : mem.loadF64(addr));
    }
    return RtValue::fromInt(mem.loadInt(addr, t.sizeBytes()));
}

void
Interp::execStore(const StoreInst *st, const Frame &frame,
                  uint64_t addr)
{
    Type t = st->value()->type();
    RtValue v = evalOperand(frame, st->value());
    if (t.isFloat()) {
        if (t.bits() == 32)
            mem.storeF32(addr, static_cast<float>(v.f));
        else
            mem.storeF64(addr, v.f);
    } else {
        mem.storeInt(addr, t.sizeBytes(), v.i);
    }
}

RtValue
Interp::runFunction(const Function &func, std::vector<RtValue> args,
                    unsigned depth)
{
    tapas_assert(args.size() == func.numArgs(),
                 "@%s called with %zu args, expects %u",
                 func.name().c_str(), args.size(), func.numArgs());
    if (depth > opts.maxCallDepth) {
        tapas_fatal("interpreter call depth exceeded %u",
                    opts.maxCallDepth);
    }
    _stats.maxCallDepth = std::max(_stats.maxCallDepth, depth);
    ++_stats.calls;

    Frame frame;
    frame.func = &func;
    frame.args = std::move(args);
    frame.regs.resize(func.numInstructions());

    // Stack discipline for allocas in this frame.
    const uint64_t saved_bump = mem.bumpPtr();

    const BasicBlock *bb = func.entry();
    const BasicBlock *prev = nullptr;
    RtValue ret;

    while (true) {
        // Phis read their incoming values in parallel.
        {
            auto phis = bb->phis();
            if (!phis.empty()) {
                std::vector<RtValue> vals;
                vals.reserve(phis.size());
                for (const PhiInst *phi : phis) {
                    tapas_assert(prev, "phi in entry block");
                    vals.push_back(
                        evalOperand(frame, phi->incomingFor(prev)));
                }
                for (size_t i = 0; i < phis.size(); ++i)
                    frame.regs[phis[i]->id()] = vals[i];
                _stats.totalInsts += phis.size();
                _stats.opcodeCount[static_cast<size_t>(Opcode::Phi)] +=
                    phis.size();
                if (opts.observer) {
                    for (const PhiInst *phi : phis)
                        opts.observer->onInst(phi);
                }
            }
        }

        const BasicBlock *next = nullptr;
        for (size_t ii = bb->phis().size(); ii < bb->size(); ++ii) {
            const Instruction *inst = bb->instructions()[ii].get();

            if (++steps > opts.maxSteps)
                tapas_fatal("interpreter exceeded max step count");
            ++_stats.totalInsts;
            ++_stats.opcodeCount[static_cast<size_t>(inst->opcode())];
            if (opts.observer)
                opts.observer->onInst(inst);

            Opcode op = inst->opcode();
            if (isIntBinary(op) || isFloatBinary(op)) {
                frame.regs[inst->id()] = evalBinary(
                    op, inst->type(), evalOperand(frame, inst->operand(0)),
                    evalOperand(frame, inst->operand(1)));
                continue;
            }
            if (isCast(op)) {
                auto *c = cast<CastInst>(inst);
                frame.regs[inst->id()] = evalCast(
                    op, c->src()->type(), c->type(),
                    evalOperand(frame, c->src()));
                continue;
            }

            switch (op) {
              case Opcode::ICmp:
              case Opcode::FCmp: {
                auto *cmp = cast<CmpInst>(inst);
                frame.regs[inst->id()] = evalCmp(
                    op, cmp->pred(), cmp->lhs()->type(),
                    evalOperand(frame, cmp->lhs()),
                    evalOperand(frame, cmp->rhs()));
                break;
              }
              case Opcode::Select: {
                auto *sel = cast<SelectInst>(inst);
                bool c = evalOperand(frame, sel->cond()).truthy();
                frame.regs[inst->id()] = evalOperand(
                    frame, c ? sel->ifTrue() : sel->ifFalse());
                break;
              }
              case Opcode::Load: {
                auto *ld = cast<LoadInst>(inst);
                uint64_t addr = evalOperand(frame, ld->addr()).ptr();
                frame.regs[inst->id()] = execLoad(ld, addr);
                if (opts.observer) {
                    opts.observer->onMemAccess(
                        addr, ld->type().sizeBytes(), false);
                }
                break;
              }
              case Opcode::Store: {
                auto *st = cast<StoreInst>(inst);
                uint64_t addr = evalOperand(frame, st->addr()).ptr();
                execStore(st, frame, addr);
                if (opts.observer) {
                    opts.observer->onMemAccess(
                        addr, st->value()->type().sizeBytes(), true);
                }
                break;
              }
              case Opcode::Gep: {
                auto *gep = cast<GepInst>(inst);
                uint64_t addr = evalOperand(frame, gep->base()).ptr();
                for (unsigned i = 0; i < gep->numIndices(); ++i) {
                    int64_t idx = evalOperand(frame,
                                              gep->index(i)).i;
                    addr += static_cast<uint64_t>(
                        idx * static_cast<int64_t>(gep->stride(i)));
                }
                frame.regs[inst->id()] = RtValue::fromPtr(addr);
                break;
              }
              case Opcode::Alloca: {
                auto *al = cast<AllocaInst>(inst);
                frame.regs[inst->id()] =
                    RtValue::fromPtr(mem.alloc(al->sizeBytes(), 8));
                break;
              }
              case Opcode::Call: {
                auto *call = cast<CallInst>(inst);
                std::vector<RtValue> cargs;
                cargs.reserve(call->numArgs());
                for (unsigned i = 0; i < call->numArgs(); ++i)
                    cargs.push_back(evalOperand(frame, call->arg(i)));
                if (opts.observer)
                    opts.observer->onCallEnter(call->callee());
                RtValue r = runFunction(*call->callee(),
                                        std::move(cargs), depth + 1);
                if (opts.observer)
                    opts.observer->onCallExit(call->callee());
                if (!call->type().isVoid())
                    frame.regs[inst->id()] = r;
                break;
              }
              case Opcode::Br: {
                auto *br = cast<BranchInst>(inst);
                if (br->isConditional()) {
                    bool c = evalOperand(frame, br->cond()).truthy();
                    next = c ? br->ifTrue() : br->ifFalse();
                } else {
                    next = br->ifTrue();
                }
                break;
              }
              case Opcode::Ret: {
                auto *r = cast<RetInst>(inst);
                if (r->hasValue())
                    ret = evalOperand(frame, r->value());
                mem.setBumpPtr(saved_bump);
                return ret;
              }
              case Opcode::Detach: {
                // Serial elision: run the child immediately.
                auto *det = cast<DetachInst>(inst);
                ++_stats.spawns;
                if (opts.observer)
                    opts.observer->onDetach(det);
                next = det->detached();
                break;
              }
              case Opcode::Reattach: {
                auto *re = cast<ReattachInst>(inst);
                if (opts.observer)
                    opts.observer->onReattach(re);
                next = re->cont();
                break;
              }
              case Opcode::Sync: {
                // Children already done under serial elision.
                auto *sy = cast<SyncInst>(inst);
                if (opts.observer)
                    opts.observer->onSync(sy);
                next = sy->cont();
                break;
              }
              default:
                tapas_panic("interpreter: unhandled opcode '%s'",
                            opcodeName(op));
            }
        }

        tapas_assert(next, "block '%s' fell through",
                     bb->name().c_str());
        prev = bb;
        bb = next;
    }
}

} // namespace tapas::ir
